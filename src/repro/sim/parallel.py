"""Parallel experiment engine: fan sweep grids out across CPU cores.

Every figure in the paper is a grid of independent simulation cells —
(policy lineup × trace × HSS config × seed) — and each cell is a pure
function of its parameters: the trace generators, policy constructors,
and the replay loop are all deterministically seeded.  That makes the
sweeps embarrassingly parallel, and it makes the parallel result
**bit-identical** to the serial one: a worker process computes exactly
what the serial loop would have computed for that cell, nothing shared,
nothing reordered.

:func:`run_many` is the engine: give it a list of :class:`Cell` tasks
(a picklable module-level function plus kwargs) and it executes them
either serially or on a ``ProcessPoolExecutor``, returning results in
cell order.  ``sim.experiment``'s sweeps and the figure benchmarks are
built on it.

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

Cell packing (the ``lane_pack`` argument, default 1): each worker task
carries that many consecutive cells instead of one.  Packed cells run
back-to-back in the same
process, so they share the per-process caches — most importantly the
Fast-Only reference memo (:func:`repro.sim.runner.run_reference`):
sweep campaigns whose points share a reference cell (capacity sweeps,
hyper-parameter sweeps) then simulate it once per worker instead of
once per point — and task-dispatch overhead drops by the pack factor.
Packing never changes results, only scheduling granularity.

Durable campaigns (``store=``): every entry point accepts a
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
    "iter_many",
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


def _run_cell_pack(cells: Sequence[Cell]) -> List[Any]:
    return [cell.run() for cell in cells]


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

    ``lane_pack`` (default 1) groups that many consecutive cells into
    each worker task; see the module docstring for why packing helps
    campaigns.

    ``store`` (a :class:`repro.store.CampaignStore` or a path) serves
    already-stored cells from disk and persists the rest — results are
    identical either way, only the amount of recomputation changes.
    """
    cells = list(cells)
    if store is not None:
        executed = _iter_with_store(
            cells, store, max_workers=max_workers, lane_pack=lane_pack
        )
    else:
        executed = _execute_iter(
            cells, max_workers=max_workers, lane_pack=lane_pack
        )
    collected = {id(cell): result for cell, result in executed}
    return [(cell.key, collected[id(cell)]) for cell in cells]


def _execute_iter(
    cells: Sequence[Cell],
    max_workers: Optional[int] = None,
    lane_pack: int = 1,
) -> Iterator[Tuple[Cell, Any]]:
    """Execute cells, yielding ``(cell, result)`` in completion order.

    The one place cells run or pools are made, so it owns the thread
    topology: whichever process executes a cell does so at
    ``_CELL_BLAS_THREADS``.
    """
    cells = list(cells)
    if not cells:  # a warm campaign: nothing to run, nothing to look up
        return
    workers = resolve_workers(len(cells), max_workers)
    if workers == 0:
        for cell in cells:
            with span("campaign.cell", cat="campaign", key=str(cell.key)):
                with limit_blas_threads(_CELL_BLAS_THREADS):
                    result = cell.run()
            yield cell, result
        return
    pack = max(1, int(lane_pack))
    chunks = [cells[i:i + pack] for i in range(0, len(cells), pack)]
    workers = min(workers, len(chunks))
    if workers == 1:
        for chunk in chunks:
            with span("campaign.pack", cat="campaign", cells=len(chunk)):
                with limit_blas_threads(_CELL_BLAS_THREADS):
                    results = _run_cell_pack(chunk)
            for cell, result in zip(chunk, results):
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
            "campaign.dispatch", cat="campaign", chunks=len(chunks),
            workers=workers, blas_threads=_cell_blas_threads(),
        ):
            futures = {
                pool.submit(_run_cell_pack, chunk): chunk for chunk in chunks
            }
        for future in as_completed(futures):
            chunk = futures[future]
            with span("campaign.collect", cat="campaign", cells=len(chunk)):
                results = future.result()
            for cell, result in zip(chunk, results):
                yield cell, result


def _iter_with_store(
    cells: Sequence[Cell],
    store,
    max_workers: Optional[int] = None,
    lane_pack: int = 1,
) -> Iterator[Tuple[Cell, Any]]:
    """The durable-campaign path of :func:`iter_many`.

    Fingerprints the grid, serves stored cells first (delivery only — a
    hit computes nothing), then executes the missing cells and persists
    each one the moment it completes, so rerunning an interrupted
    campaign recomputes exactly its missing cells.
    """
    from ..store import MISS, resolve_store  # only a durable grid pays for it

    store = resolve_store(store)
    cells = list(cells)
    with span("store.fingerprint", cat="store", cells=len(cells)):
        fingerprints = [
            store.fingerprint(cell.fn, cell.kwargs) for cell in cells
        ]
    pending: List[Cell] = []
    fingerprint_of: Dict[int, Optional[str]] = {}
    for cell, fp in zip(cells, fingerprints):
        if fp is None:
            hit = MISS
        else:
            with span("store.get", cat="store", key=str(cell.key)):
                hit = store.get(fp)
        if hit is MISS:
            pending.append(cell)
            fingerprint_of[id(cell)] = fp
        else:
            yield cell, hit
    for cell, result in _execute_iter(
        pending, max_workers=max_workers, lane_pack=lane_pack
    ):
        fp = fingerprint_of[id(cell)]
        if fp is not None:
            with span("store.put", cat="store", key=str(cell.key)):
                store.put(fp, result, fn=cell.fn, key=cell.key)
        yield cell, result


def iter_many(
    cells: Sequence[Cell],
    max_workers: Optional[int] = None,
    lane_pack: int = 1,
    store=None,
) -> Iterator[Tuple[Hashable, Any]]:
    """Stream ``(key, result)`` pairs as cells complete.

    The streaming counterpart of :func:`run_many`: results arrive in
    **completion order** (cell order on the serial path), so a caller
    can fold each cell into a report the moment it finishes instead of
    materialising the full grid first — the difference between staring
    at a silent campaign for minutes and watching its rows land.  Every
    cell computes exactly what :func:`run_many` would compute for it;
    only the delivery order and latency change.

    ``lane_pack`` groups consecutive cells per worker task exactly as
    in :func:`run_many`; a packed chunk is delivered together (in cell
    order within the chunk) when the chunk completes.

    With a ``store`` (a :class:`repro.store.CampaignStore` or a path),
    already-stored cells are delivered first — straight from disk, zero
    simulation ticks — and the missing cells follow as they execute and
    persist; both kinds stream through this same interface, so callers
    (``on_cell`` consumers, live reports) cannot tell a warm cell from
    a fresh one.
    """
    cells = list(cells)
    if store is not None:
        for cell, result in _iter_with_store(
            cells, store, max_workers=max_workers, lane_pack=lane_pack
        ):
            yield cell.key, result
        return
    for cell, result in _execute_iter(
        cells, max_workers=max_workers, lane_pack=lane_pack
    ):
        yield cell.key, result


def run_grid(
    cells: Sequence[Cell],
    max_workers: Optional[int] = None,
    on_cell: Optional[Callable[[Hashable, Any], None]] = None,
    store=None,
) -> Dict[Hashable, Any]:
    """:func:`run_many`, merged into a dict keyed by each cell's key.

    ``on_cell(key, result)``, when given, fires once per cell **as the
    cell completes** (completion order — :func:`iter_many` underneath),
    so sweeps can stream rows into a live report; the returned dict is
    always in cell order regardless.  ``store`` makes the grid durable
    (see :func:`iter_many`); store hits fire ``on_cell`` exactly like
    fresh results.
    """
    cells = list(cells)
    results: Dict[Hashable, Any] = {}
    for key, result in iter_many(cells, max_workers=max_workers, store=store):
        if on_cell is not None:
            on_cell(key, result)
        results[key] = result
    return {cell.key: results[cell.key] for cell in cells}
