"""Hybrid-storage-system simulator substrate.

Replaces the paper's real-hardware testbed (Table 3) with a
discrete-event latency model; see DESIGN.md "Substitutions".
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports

if TYPE_CHECKING:  # static readers; at run time a name imports on first access
    from .device import DeviceSpec, DeviceStats, StorageDevice
    from .devices import (
        H_SPEC,
        L_SPEC,
        L_SSD_SPEC,
        M_SPEC,
        available_devices,
        make_device,
        make_devices,
    )
    from .eviction import (
        BeladyVictimSelector,
        ColdestVictimSelector,
        LRUVictimSelector,
        VictimSelector,
        make_victim_selector,
    )
    from .hdd import HDDConfig, HDDDevice
    from .mapping import PageTable
    from .request import PAGE_SIZE_BYTES, OpType, Request, expand_pages
    from .ssd import SSDConfig, SSDDevice
    from .system import HSSStats, HybridStorageSystem, ServeResult
    from .tracking import PageAccessTracker

__all__ = [
    "BeladyVictimSelector",
    "ColdestVictimSelector",
    "DeviceSpec",
    "DeviceStats",
    "HDDConfig",
    "HDDDevice",
    "HSSStats",
    "H_SPEC",
    "HybridStorageSystem",
    "LRUVictimSelector",
    "L_SPEC",
    "L_SSD_SPEC",
    "M_SPEC",
    "OpType",
    "PAGE_SIZE_BYTES",
    "PageAccessTracker",
    "PageTable",
    "Request",
    "SSDConfig",
    "SSDDevice",
    "ServeResult",
    "StorageDevice",
    "VictimSelector",
    "available_devices",
    "expand_pages",
    "make_device",
    "make_devices",
    "make_victim_selector",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    ".device": ["DeviceSpec", "DeviceStats", "StorageDevice"],
    ".devices": ["H_SPEC", "L_SPEC", "L_SSD_SPEC", "M_SPEC",
        "available_devices", "make_device", "make_devices"],
    ".eviction": ["BeladyVictimSelector", "ColdestVictimSelector",
        "LRUVictimSelector", "VictimSelector", "make_victim_selector"],
    ".hdd": ["HDDConfig", "HDDDevice"],
    ".mapping": ["PageTable"],
    ".request": ["PAGE_SIZE_BYTES", "OpType", "Request", "expand_pages"],
    ".ssd": ["SSDConfig", "SSDDevice"],
    ".system": ["HSSStats", "HybridStorageSystem", "ServeResult"],
    ".tracking": ["PageAccessTracker"],
})
