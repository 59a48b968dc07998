"""Structure-of-arrays containers for the compiled tick kernel.

The serial stepper walks per-request Python objects: every tick
re-reads ``Request`` dataclass attributes, and per-lane device state
lives scattered across ``StorageDevice``/``PageTable`` instances.  The
kernel's packer instead decomposes a lane's trace once into contiguous
parallel arrays (:class:`TraceSoA`).

The container is deliberately a *derived* view: the live simulation
objects (``HybridStorageSystem``, ``SibylAgent``) stay the source of
truth, because bit-identity to the serial path is defined against their
state.  ``TraceSoA`` feeds the kernel's input side (and its dense page
remap); the output side is written straight back into those objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Sequence, Tuple

import numpy as np

from ...hss.request import Request

__all__ = ["TraceSoA"]


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
