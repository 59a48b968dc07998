"""Victim selection for evictions from a full device.

When the fast device runs out of free space the storage management layer
must pick pages to demote to the next slower device (§2.1).  The paper's
baselines use recency/frequency heuristics, while the Oracle baseline
"exploits complete knowledge of future I/O-access patterns ... to select
victim data blocks for eviction" (§7) — the Belady-style selector here.
"""

from __future__ import annotations

from typing import Dict, List, Protocol

from .mapping import PageTable

__all__ = [
    "VictimSelector",
    "LRUVictimSelector",
    "BeladyVictimSelector",
]

_INFINITY = float("inf")


class VictimSelector(Protocol):
    """Strategy object choosing eviction victims on a device."""

    def select(
        self, table: PageTable, device: int, n_victims: int
    ) -> List[int]:
        """Return up to ``n_victims`` pages to evict from ``device``."""
        ...


class LRUVictimSelector:
    """Evict the least-recently-used pages (the default policy)."""

    def select(self, table: PageTable, device: int, n_victims: int) -> List[int]:
        if n_victims == 1:
            # The overwhelmingly common case (one-page overflow).
            page = table.lru_page(device)
            return [] if page is None else [page]
        victims: List[int] = []
        for page in table.resident_pages(device):
            if len(victims) >= n_victims:
                break
            victims.append(page)
        return victims


class BeladyVictimSelector:
    """Evict the pages whose next use is farthest in the future.

    Used by the Oracle baseline.  ``future_uses`` maps each page to the
    ascending list of page-access indices at which it will be touched;
    :attr:`now` must be advanced by the caller as the trace is replayed.
    """

    def __init__(self, future_uses: Dict[int, List[int]]) -> None:
        self.future_uses = future_uses
        self.now = 0
        self._cursor: Dict[int, int] = {}

    def next_use(self, page: int) -> float:
        """Page-access index of the next touch of ``page`` (inf if never)."""
        uses = self.future_uses.get(page)
        if not uses:
            return _INFINITY
        i = self._cursor.get(page, 0)
        while i < len(uses) and uses[i] < self.now:
            i += 1
        self._cursor[page] = i
        if i == len(uses):
            return _INFINITY
        return uses[i]

    def select(self, table: PageTable, device: int, n_victims: int) -> List[int]:
        resident = list(table.resident_pages(device))
        if len(resident) <= n_victims:
            return resident
        resident.sort(key=self.next_use, reverse=True)
        return resident[:n_victims]
