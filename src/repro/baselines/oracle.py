"""Oracle — Belady-style placement with complete future knowledge (§7).

The paper's Oracle "exploits complete knowledge of future I/O-access
patterns to perform data placement and to select victim data blocks for
eviction from the fast device" (adopted from HPS's oracle).  Sibyl
reaches ~80% of its performance (§8.1).

Implementation: ``prepare(trace)`` precomputes, for every page, the
ascending list of page-access indices at which it is touched, and for
every request how far away the next use of its page is.  At run time
the policy:

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

_NEVER = float("inf")

#: ``(future, gaps, touches)``: see :class:`FutureUseIndex`.
_Index = Tuple[Dict[int, List[int]], List[float], int]


class FutureUseIndex:
    """One trace's future-use index, built once for the policies that
    share it, in one pass over the trace (a streaming trace is read
    once):

    * ``future``: ``page -> ascending page-access indices of its
      touches``;
    * ``gaps``: per request, the page accesses from its last page to the
      next touch of its first page (``inf`` if there is none);
    * ``touches``: the total number of page accesses.

    Nothing writes to the index after it is built, so the horizons of a
    best-of search read the same lists.
    """

    def __init__(self) -> None:
        self._trace: Optional[Iterable[Request]] = None
        self._built: Optional[_Index] = None

    def of(self, trace: Iterable[Request]) -> _Index:
        """``(future, gaps, touches)`` of ``trace`` — the cached triple
        when it is the object the index was last built from."""
        if self._built is None or self._trace is not trace:
            future: Dict[int, List[int]] = {}
            gaps: List[float] = []
            # page -> (request, its last page access) whose gap is open:
            # the next touch of the page closes it.
            waiting: Dict[int, Tuple[int, int]] = {}
            clock = 0
            for req in trace:
                for page in req.pages:
                    future.setdefault(page, []).append(clock)
                    opened = waiting.pop(page, None)
                    if opened is not None:
                        gaps[opened[0]] = clock - opened[1]
                    clock += 1
                # Opened after the request's own touches: its page's
                # next use comes after the request ends.
                waiting[req.page] = (len(gaps), clock - 1)
                gaps.append(_NEVER)
            self._trace, self._built = trace, (future, gaps, clock)
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
        self._gaps: List[float] = []
        self._selector: BeladyVictimSelector | None = None
        self._placed = 0  # requests placed
        self._clock = 0  # page-access index, advanced per request
        self._horizon = 0

    # ------------------------------------------------------------ prepare
    def prepare(self, trace: List[Request]) -> None:
        """Index every future page touch (the oracle's foresight)."""
        future, self._gaps, clock = (self.index or FutureUseIndex()).of(trace)
        self._selector = BeladyVictimSelector(future)
        hss = self._require_hss()
        hss.victim_selector = self._selector
        cap = hss.capacity_pages[hss.fastest]
        # Reuse horizon: a page whose next use is farther away than the
        # fast capacity (in page accesses) would be evicted by Belady
        # before being reused, so placing it fast is wasted motion.
        base = cap if cap is not None else max(1, clock)
        self._horizon = max(1, int(base * self.horizon_scale))
        self._placed = 0
        self._clock = 0

    def attach(self, hss) -> None:
        super().attach(hss)
        if self._selector is not None:
            hss.victim_selector = self._selector

    # ------------------------------------------------------------- policy
    def place(self, request: Request) -> int:
        hss = self._require_hss()
        if self._selector is None:
            raise RuntimeError("OraclePolicy.place called before prepare()")
        # Reuse is judged from the end of this request.
        gap = self._gaps[self._placed]
        self._placed += 1
        self._clock += request.size
        self._selector.now = self._clock
        return hss.fastest if gap <= self._horizon else hss.slowest

    def reset(self) -> None:
        self._gaps = []
        self._selector = None
        self._placed = 0
        self._clock = 0
        self._horizon = 0
