"""Parallel experiment engine: fan sweep grids out across CPU cores.

Every figure in the paper is a grid of independent simulation cells —
(policy lineup × trace × HSS config × seed) — and each cell is a pure
function of its parameters: the trace generators, policy constructors,
and the replay loop are all deterministically seeded.  That makes the
sweeps embarrassingly parallel, and it makes the parallel result
**bit-identical** to the serial one: a worker process computes exactly
what the serial loop would have computed for that cell, nothing shared,
nothing reordered.

Give :func:`run_many` or :func:`run_grid` a list of :class:`Cell` tasks
(a picklable module-level function plus kwargs) and each cell runs
either inline or on a ``ProcessPoolExecutor``, one cell per task.
:func:`run_many` returns ``[(key, result), ...]`` in cell order;
:func:`run_grid` returns a dict and, through ``on_cell=``, streams each
result the moment its cell completes.  ``sim.experiment``'s sweeps and
the figure benchmarks are built on them.

Worker-count policy (the ``SIBYL_PARALLEL`` environment variable, a
count row of :data:`repro.knobs.TABLE`):

* unset / ``"auto"`` — one worker per core this process may run on
  (its affinity mask, so a ``taskset``/cgroup-limited box is not sized
  by the host), but stay serial when that is a single core or the grid
  has a single cell (pool overhead would only slow those down);
* ``"0"`` / ``"1"`` / ``"serial"`` — force the serial path;
* any other non-negative integer — use exactly that many workers;
* garbage and negative values raise ``ValueError`` (a misconfiguration
  must never silently change the execution mode).

Thread topology: the campaign's parallelism is its workers, so every
process that executes cells runs BLAS single-threaded
(:mod:`repro.native.blas`) — pool workers pinned once at worker start, the
serial path pinned around each cell and restored after it.  N workers
each running an N-thread BLAS is N x N oversubscription for matrices
too small to use it; results are bit-identical at any thread count.
The pin never outlives cell execution in the calling process.

Durable campaigns (``store=``): both entry points accept a
:class:`repro.store.CampaignStore` (or a path to one).  Each cell is
then content-fingerprinted before dispatch; cells already stored are
served from disk — **zero simulation ticks** — and stream through the
same delivery path as fresh results, while missing cells execute
normally and persist the moment they finish (atomic write, crash-safe).
A sweep killed mid-grid resumes by being rerun: it finds the finished
cells' blobs and computes only the missing cells.  Because stored
results round-trip losslessly, a warm or resumed campaign is
bit-identical to a cold one; the store only changes how much work a
rerun repeats.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .. import knobs
from ..native.blas import blas_threads, limit_blas_threads, set_blas_threads
from ..obs.tracer import span

__all__ = [
    "Cell",
    "run_many",
    "run_grid",
    "resolve_workers",
]

#: BLAS threads of a process while it executes cells (module docstring).
_CELL_BLAS_THREADS = 1


@dataclass(frozen=True)
class Cell:
    """One independent unit of a sweep grid.

    ``fn`` must be a module-level (picklable) callable; ``kwargs`` are
    its keyword arguments.  ``key`` identifies the cell in the merged
    output grid — sweeps use e.g. ``("rsrch_0", 0.10)`` for a
    (workload, capacity-fraction) point.
    """

    key: Hashable
    fn: Callable[..., Any]
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def run(self) -> Any:
        return self.fn(**self.kwargs)


def _usable_cpus() -> int:
    """Cores this process may run on: its affinity mask where the
    platform exposes one, else every core of the host."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cell_blas_threads() -> int:
    """The BLAS thread count cells execute at, as the
    ``campaign.dispatch`` span reports it — ``0`` when no known BLAS is
    mapped and the pin is a no-op on this platform."""
    return _CELL_BLAS_THREADS if blas_threads() is not None else 0


def resolve_workers(
    n_cells: int, max_workers: Optional[int] = None
) -> int:
    """Number of pool workers to use; ``0`` means "run serially"."""
    if n_cells <= 1:
        return 0
    if max_workers is None:
        max_workers = knobs.get("SIBYL_PARALLEL", default=_usable_cpus())
    if max_workers <= 1:
        return 0
    return min(max_workers, n_cells)


def run_many(
    cells: Sequence[Cell],
    max_workers: Optional[int] = None,
    lane_pack: int = 1,
    store=None,
) -> List[Tuple[Hashable, Any]]:
    """Execute ``cells`` and return ``[(key, result), ...]`` in cell order.

    With more than one worker available the cells run on a process
    pool; otherwise they run inline.  Each cell is self-contained and
    deterministically seeded by its kwargs, so the two paths produce
    identical results — parallelism only changes wall-clock time.

    ``store`` (a :class:`repro.store.CampaignStore` or a path) serves
    already-stored cells from disk and persists the rest — results are
    identical either way, only the amount of recomputation changes.

    ``lane_pack`` accepts only ``1`` (anything else raises
    ``ValueError``); it exists only because the frozen benchmark probe
    passes ``lane_pack=1``, and ROADMAP item 6's benchmark-only change
    deletes it.
    """
    if lane_pack != 1:
        raise ValueError(f"lane_pack must be 1, got {lane_pack!r}")
    cells = list(cells)
    collected = {id(cell): result
                 for cell, result in _completed(cells, max_workers, store)}
    return [(cell.key, collected[id(cell)]) for cell in cells]


def run_grid(
    cells: Sequence[Cell],
    max_workers: Optional[int] = None,
    on_cell: Optional[Callable[[Hashable, Any], None]] = None,
    store=None,
) -> Dict[Hashable, Any]:
    """:func:`run_many`, merged into a dict keyed by each cell's key.

    ``on_cell(key, result)``, when given, fires once per cell **as the
    cell completes** — completion order, which is cell order on the
    serial path, where it fires before the next cell starts — so sweeps
    can stream rows into a live report; the returned dict is always in
    cell order regardless.  With a ``store``, already-stored cells fire
    first, straight from disk, and the missing cells follow as they
    execute and persist: ``on_cell`` cannot tell a warm cell from a
    fresh one.
    """
    cells = list(cells)
    results: Dict[int, Any] = {}
    for cell, result in _completed(cells, max_workers, store):
        if on_cell is not None:
            on_cell(cell.key, result)
        results[id(cell)] = result
    return {cell.key: results[id(cell)] for cell in cells}


def _completed(
    cells: List[Cell], max_workers: Optional[int], store,
) -> Iterator[Tuple[Cell, Any]]:
    """Yield ``(cell, result)`` for every cell, in completion order.

    With a ``store``, fingerprints the grid and yields the stored cells
    first (delivery only — a hit computes nothing), then executes the
    missing cells and persists each one the moment it completes, so
    rerunning an interrupted campaign recomputes exactly its missing
    cells.
    """
    fingerprint_of: Dict[int, Optional[str]] = {}
    if store is not None:
        from ..store import MISS, resolve_store  # only a durable grid pays for it

        store = resolve_store(store)
        with span("store.fingerprint", cat="store", cells=len(cells)):
            fingerprints = [
                store.fingerprint(cell.fn, cell.kwargs) for cell in cells
            ]
        pending: List[Cell] = []
        for cell, fp in zip(cells, fingerprints):
            hit = MISS
            if fp is not None:
                with span("store.get", cat="store", key=str(cell.key)):
                    hit = store.get(fp)
            if hit is MISS:
                pending.append(cell)
                fingerprint_of[id(cell)] = fp
            else:
                yield cell, hit
        cells = pending
    for cell, result in _execute(cells, max_workers):
        fp = fingerprint_of.get(id(cell))
        if fp is not None:
            with span("store.put", cat="store", key=str(cell.key)):
                store.put(fp, result, fn=cell.fn, key=cell.key)
        yield cell, result


def _execute(
    cells: List[Cell], max_workers: Optional[int],
) -> Iterator[Tuple[Cell, Any]]:
    """Execute cells, yielding ``(cell, result)`` in completion order.

    The one place cells run or pools are made, so it owns the thread
    topology: whichever process executes a cell does so at
    ``_CELL_BLAS_THREADS``.
    """
    workers = resolve_workers(len(cells), max_workers)
    if workers == 0:
        for cell in cells:
            with span("campaign.cell", cat="campaign", key=str(cell.key)):
                with limit_blas_threads(_CELL_BLAS_THREADS):
                    result = cell.run()
            yield cell, result
        return
    # Only a process that fans out pays for the pool machinery
    # (concurrent.futures.process pulls in multiprocessing).
    from concurrent.futures import ProcessPoolExecutor, as_completed

    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=set_blas_threads,
        initargs=(_CELL_BLAS_THREADS,),
    ) as pool:
        with span(
            "campaign.dispatch", cat="campaign", cells=len(cells),
            workers=workers, blas_threads=_cell_blas_threads(),
        ):
            futures = {
                pool.submit(cell.fn, **cell.kwargs): cell for cell in cells
            }
        for future in as_completed(futures):
            cell = futures[future]
            with span("campaign.collect", cat="campaign", key=str(cell.key)):
                result = future.result()
            yield cell, result
