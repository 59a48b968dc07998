"""Structure-of-arrays containers for the compiled tick kernel.

The serial stepper walks per-request Python objects: every tick
re-reads ``Request`` dataclass attributes, and per-lane device state
lives scattered across ``StorageDevice``/``PageTable`` instances.  The
kernel's packer instead decomposes a trace into contiguous parallel
arrays (:class:`TraceSoA`).

A trace tuple — what :func:`repro.sim.runner.synthetic_trace` hands
every cell of a (workload, n_requests, seed) axis — is packed once per
*process*: :func:`shared_pack` keeps one ``TraceSoA`` per tuple in a
bounded memo that ``runner.clear_reference_cache`` empties, and
``synthetic_trace`` seeds it straight from the columns the compiled
draw loop wrote.  Every lane of every ``run_lanes`` call replaying the
tuple reads that one pack, and the HSS is sized from its ``uniq``.  So
its arrays are read-only: an in-place write raises instead of
corrupting the next lane.

The container is deliberately a *derived* view: the live simulation
objects (``HybridStorageSystem``, ``SibylAgent``) stay the source of
truth, because bit-identity to the serial path is defined against their
state.  ``TraceSoA`` feeds the kernel's input side (and its dense page
remap); the output side is written straight back into those objects.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Tuple

import numpy as np

from ...hss.request import Request

__all__ = ["TraceSoA", "shared_pack", "clear_shared_packs"]


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass
class TraceSoA:
    """A trace decomposed into parallel, read-only arrays.

    ``requests`` keeps the original objects (the scripted lanes' decide
    pass calls ``policy.place`` on them); the arrays carry the per-field
    columns the hot loop actually reads.
    """

    requests: Sequence[Request]
    timestamps: np.ndarray  # float64 (n,)
    ops: np.ndarray  # uint8   (n,)  0=read, 1=write
    pages: np.ndarray  # int64   (n,)  starting logical page
    sizes: np.ndarray  # int64   (n,)  request size in pages

    def __post_init__(self) -> None:
        for column in (self.timestamps, self.ops, self.pages, self.sizes):
            _frozen(column)

    @classmethod
    def from_requests(cls, requests: Sequence[Request]) -> "TraceSoA":
        if not isinstance(requests, (list, tuple)):
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

    # What the compiled kernel derives from the columns, computed on the
    # first read and kept with the pack (``len(uniq)`` is the working
    # set ``runner.build_hss`` sizes the fast device from).
    @cached_property
    def uniq(self) -> np.ndarray:
        """Sorted unique logical pages the trace touches (all sizes).

        The compiled kernel remaps these to dense ids (a page's index
        here) so the page table, access tracker, and LRU lists become
        flat arrays instead of hash maps.
        """
        return _frozen(np.unique(self.page_touches()))

    @cached_property
    def dpage(self) -> np.ndarray:
        """Dense id of each request's first page (the rest follow it)."""
        return _frozen(np.searchsorted(self.uniq, self.pages).astype(np.int64))

    @cached_property
    def future_uses(self) -> Tuple[np.ndarray, np.ndarray]:
        """``OraclePolicy.prepare``'s index as CSR over dense pages.

        ``(offsets, indices)``: dense page ``p`` is touched at the
        ascending page-access indices ``indices[offsets[p]:offsets[p+1]]``.
        """
        touches = np.searchsorted(self.uniq, self.page_touches())
        offsets = np.zeros(len(self.uniq) + 1, dtype=np.int64)
        np.cumsum(np.bincount(touches, minlength=len(self.uniq)), out=offsets[1:])
        indices = np.argsort(touches, kind="stable").astype(np.int64)
        return _frozen(offsets), _frozen(indices)


#: The per-process pack memo, ``id(trace) -> (trace, pack)`` for trace
#: tuples.  The entry holds the tuple, so its id cannot be reused while
#: it is cached; as many entries as ``runner.synthetic_trace`` keeps.
_SHARED: "OrderedDict[int, Tuple[tuple, TraceSoA]]" = OrderedDict()
_SHARED_LIMIT = 8


def shared_pack(
    trace, pack: Optional[TraceSoA] = None
) -> Optional[TraceSoA]:
    """This process's one pack of the trace tuple ``trace`` — ``pack``
    when given and none is cached yet, else packed from the requests on
    the first ask.  None for any source that is not a tuple: a list may
    change and a stream may be long, so neither is kept."""
    if type(trace) is not tuple:
        return None
    hit = _SHARED.get(id(trace))
    if hit is not None and hit[0] is trace:
        _SHARED.move_to_end(id(trace))
        return hit[1]
    if pack is None:
        pack = TraceSoA.from_requests(trace)
    _SHARED[id(trace)] = (trace, pack)
    while len(_SHARED) > _SHARED_LIMIT:
        _SHARED.popitem(last=False)
    return pack


def clear_shared_packs() -> None:
    """Drop every memoised pack (``runner.clear_reference_cache``)."""
    _SHARED.clear()
