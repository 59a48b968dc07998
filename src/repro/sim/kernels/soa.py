"""Structure-of-arrays containers for the tick engines.

The serial stepper walks per-request Python objects: every tick
re-reads ``Request`` dataclass attributes, and per-lane device state
lives scattered across ``StorageDevice``/``PageTable`` instances.  The
SoA engines instead decompose a lane's trace once into contiguous
parallel arrays (:class:`TraceSoA`) and expose the per-lane tick state
— completion horizon, device queue depths and utilisation, reward
accumulators — as arrays indexed by lane (:class:`LaneSoA`).

The containers are deliberately *derived* views: the live simulation
objects (``HybridStorageSystem``, ``SibylAgent``) stay the source of
truth, because bit-identity to the serial path is defined against their
state.  ``TraceSoA`` feeds the engines' input side (and the compiled
kernel's dense page remap); ``LaneSoA`` snapshots the output side.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Sequence, Tuple

import numpy as np

from ...hss.request import Request

__all__ = ["TraceSoA", "LaneSoA"]


@dataclass
class TraceSoA:
    """One lane's trace decomposed into parallel arrays.

    ``requests`` keeps the original objects (the engines fall back to
    the generic ``HybridStorageSystem.serve`` for multi-page requests,
    which wants a :class:`~repro.hss.request.Request`); the arrays carry
    the per-field columns the hot loop actually reads.
    """

    requests: List[Request]
    timestamps: np.ndarray  # float64 (n,)
    ops: np.ndarray  # uint8   (n,)  0=read, 1=write
    pages: np.ndarray  # int64   (n,)  starting logical page
    sizes: np.ndarray  # int64   (n,)  request size in pages

    @classmethod
    def from_requests(cls, requests: Sequence[Request]) -> "TraceSoA":
        requests = list(requests)
        n = len(requests)
        return cls(
            requests=requests,
            timestamps=np.fromiter(
                (r.timestamp for r in requests), dtype=np.float64, count=n
            ),
            ops=np.fromiter((r.op for r in requests), dtype=np.uint8, count=n),
            pages=np.fromiter(
                (r.page for r in requests), dtype=np.int64, count=n
            ),
            sizes=np.fromiter(
                (r.size for r in requests), dtype=np.int64, count=n
            ),
        )

    @classmethod
    def from_run(cls, run) -> "TraceSoA":
        """Materialise a fresh ``PolicyRun``'s remaining trace.

        Consumes the run's iterator — the engine that called this owns
        the run to completion from here on.
        """
        return cls.from_requests(list(run._iter))

    @property
    def n(self) -> int:
        return len(self.requests)

    @property
    def max_size(self) -> int:
        return int(self.sizes.max()) if len(self.requests) else 0

    def page_touches(self) -> np.ndarray:
        """Every logical page touch in serve order (the tracker's clock).

        Multi-page requests are expanded vectorised: repeat each start
        page by its size, add the within-request offsets.
        """
        sizes = self.sizes
        if self.max_size <= 1:
            return self.pages
        reps = np.repeat(self.pages, sizes)
        starts = np.cumsum(sizes) - sizes
        offsets = np.arange(reps.shape[0], dtype=np.int64) - np.repeat(
            starts, sizes
        )
        return reps + offsets

    # What the compiled kernel derives from the columns.  Cached, and
    # only read by the kernel: lanes replaying one trace share one pack.
    @cached_property
    def uniq(self) -> np.ndarray:
        """Sorted unique logical pages the trace touches (all sizes).

        The compiled kernel remaps these to dense ids (a page's index
        here) so the page table, access tracker, and LRU lists become
        flat arrays instead of hash maps.
        """
        return np.unique(self.page_touches())

    @cached_property
    def dpage(self) -> np.ndarray:
        """Dense id of each request's first page (the rest follow it)."""
        return np.searchsorted(self.uniq, self.pages).astype(np.int64)

    @cached_property
    def future_uses(self) -> Tuple[np.ndarray, np.ndarray]:
        """``OraclePolicy.prepare``'s index as CSR over dense pages.

        ``(offsets, indices)``: dense page ``p`` is touched at the
        ascending page-access indices ``indices[offsets[p]:offsets[p+1]]``.
        """
        touches = np.searchsorted(self.uniq, self.page_touches())
        offsets = np.zeros(len(self.uniq) + 1, dtype=np.int64)
        np.cumsum(np.bincount(touches, minlength=len(self.uniq)), out=offsets[1:])
        return offsets, np.argsort(touches, kind="stable").astype(np.int64)


@dataclass
class LaneSoA:
    """Per-lane tick state as contiguous arrays indexed by lane.

    One row per lane; columns are the quantities the engines account
    every tick: the closed-loop completion horizon, the per-device
    queue depth (busy horizon) and SSD utilisation, the request index,
    and the accumulated reward.  Filled by the engines as lanes cross
    their warmup boundary and finish, so batch callers (the hot-path
    profiler, future serving daemons) read one array instead of K
    object graphs.
    """

    completion_s: np.ndarray  # float64 (K,)
    index: np.ndarray  # int64   (K,)
    queue_depth_s: np.ndarray  # float64 (K, D) device busy horizons
    utilization: np.ndarray  # float64 (K, D)
    reward_sum: np.ndarray  # float64 (K,)

    @classmethod
    def for_runs(cls, runs: Sequence) -> "LaneSoA":
        k = len(runs)
        d = max((run.hss.n_devices for run in runs), default=0)
        return cls(
            completion_s=np.zeros(k, dtype=np.float64),
            index=np.zeros(k, dtype=np.int64),
            queue_depth_s=np.zeros((k, d), dtype=np.float64),
            utilization=np.zeros((k, d), dtype=np.float64),
            reward_sum=np.zeros(k, dtype=np.float64),
        )

    def snapshot(self, lane: int, run, reward_sum: float) -> None:
        """Record ``run``'s current state into row ``lane``."""
        hss = run.hss
        self.completion_s[lane] = run._completion_s
        self.index[lane] = run._index
        for d, dev in enumerate(hss.devices):
            self.queue_depth_s[lane, d] = dev._next_free_s
            self.utilization[lane, d] = getattr(dev, "utilization", 0.0)
        self.reward_sum[lane] = reward_sum
