"""Oracle — Belady-style placement with complete future knowledge (§7).

The paper's Oracle "exploits complete knowledge of future I/O-access
patterns to perform data placement and to select victim data blocks for
eviction from the fast device" (adopted from HPS's oracle).  Sibyl
reaches ~80% of its performance (§8.1).

Implementation: ``prepare(trace)`` precomputes, for every page, the
ascending list of page-access indices at which it is touched.  At run
time the policy:

* places a page in fast storage iff its *next* use is within a reuse
  horizon calibrated to the fast device's capacity (the page would
  plausibly survive in a Belady-managed cache of that size until its
  reuse);
* installs a :class:`~repro.hss.eviction.BeladyVictimSelector` so that
  forced evictions pick the victim with the farthest next use.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..hss.eviction import BeladyVictimSelector
from ..hss.request import Request
from .base import PlacementPolicy

__all__ = ["OraclePolicy", "FutureUseIndex"]


class FutureUseIndex:
    """One trace's future-use index, built once for the policies that
    share it: ``page -> ascending page-access indices of its touches``
    and the total number of touches.  Nothing writes to the index after
    it is built, so the horizons of a best-of search read the same dict.
    """

    def __init__(self) -> None:
        self._trace: Optional[Iterable[Request]] = None
        self._built: Optional[Tuple[Dict[int, List[int]], int]] = None

    def of(self, trace: Iterable[Request]) -> Tuple[Dict[int, List[int]], int]:
        """``(future uses, touches)`` of ``trace`` — the cached pair when
        it is the object the index was last built from."""
        if self._built is None or self._trace is not trace:
            future: Dict[int, List[int]] = {}
            clock = 0
            for req in trace:
                for page in req.pages:
                    future.setdefault(page, []).append(clock)
                    clock += 1
            self._trace, self._built = trace, (future, clock)
        return self._built


class OraclePolicy(PlacementPolicy):
    """Future-knowledge placement + Belady victim selection."""

    name = "Oracle"

    def __init__(self, horizon_scale: float = 4.0) -> None:
        super().__init__()
        if horizon_scale <= 0:
            raise ValueError("horizon_scale must be positive")
        self.horizon_scale = horizon_scale
        #: Optionally, where ``prepare`` gets its index: policies about
        #: to replay one (unchanging) trace object may be given the same
        #: :class:`FutureUseIndex` — it survives ``reset`` — and then
        #: index the trace once between them.
        self.index: Optional[FutureUseIndex] = None
        self._future: Dict[int, List[int]] = {}
        self._selector: BeladyVictimSelector | None = None
        self._clock = 0  # page-access index, advanced per request
        self._horizon = 0

    # ------------------------------------------------------------ prepare
    def prepare(self, trace: List[Request]) -> None:
        """Index every future page touch (the oracle's foresight)."""
        future, clock = (self.index or FutureUseIndex()).of(trace)
        self._future = future
        self._selector = BeladyVictimSelector(future)
        hss = self._require_hss()
        hss.victim_selector = self._selector
        cap = hss.capacity_pages[hss.fastest]
        # Reuse horizon: a page whose next use is farther away than the
        # fast capacity (in page accesses) would be evicted by Belady
        # before being reused, so placing it fast is wasted motion.
        base = cap if cap is not None else max(1, clock)
        self._horizon = max(1, int(base * self.horizon_scale))
        self._clock = 0

    def attach(self, hss) -> None:
        super().attach(hss)
        if self._selector is not None:
            hss.victim_selector = self._selector

    # ------------------------------------------------------------- policy
    def _next_use(self, page: int, after: int) -> float:
        uses = self._future.get(page)
        if not uses:
            return float("inf")
        # Binary search for the first use strictly after `after`.
        lo, hi = 0, len(uses)
        while lo < hi:
            mid = (lo + hi) // 2
            if uses[mid] <= after:
                lo = mid + 1
            else:
                hi = mid
        if lo == len(uses):
            return float("inf")
        return uses[lo]

    def place(self, request: Request) -> int:
        hss = self._require_hss()
        if self._selector is None:
            raise RuntimeError("OraclePolicy.place called before prepare()")
        # The requested pages occupy clock .. clock+size-1; reuse must be
        # judged from the end of this request.
        end = self._clock + request.size - 1
        next_use = self._next_use(request.page, end)
        self._clock += request.size
        self._selector.now = self._clock
        if next_use == float("inf"):
            return hss.slowest
        return (
            hss.fastest
            if (next_use - end) <= self._horizon
            else hss.slowest
        )

    def reset(self) -> None:
        self._future = {}
        self._selector = None
        self._clock = 0
        self._horizon = 0
