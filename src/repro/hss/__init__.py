"""Hybrid-storage-system simulator substrate.

Replaces the paper's real-hardware testbed (Table 3) with a
discrete-event latency model; see DESIGN.md "Substitutions".
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
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
