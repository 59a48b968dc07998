"""Experiment definitions: the sweeps behind each paper figure.

Each function corresponds to one evaluation axis and returns plain
dicts ready for :mod:`repro.sim.report`.  Benchmarks call these with
reduced trace lengths; examples and users can scale ``n_requests`` up.

All experiments measure the steady-state window (default: requests
after a 30% warmup) — the short-trace equivalent of the paper's
multi-hour runs, applied identically to every policy (see
``run_policy``'s docstring).

This module only *names the grids*: every sweep validates its
arguments, lists its grid points, and hands them to one helper
(:func:`_run_sweep`) that builds the :class:`~repro.sim.parallel.Cell`
list against the sweep's cell function in :mod:`repro.sim.campaign` and
fans it out through :func:`repro.sim.parallel.run_grid`.  Each grid
point is a self-contained, deterministically seeded cell (the cell
function rebuilds its traces and policies from primitive parameters
inside the worker), so parallel execution is bit-identical to the
serial path and only wall-clock time changes.  Pass ``max_workers`` to
pin the fan-out, or set ``SIBYL_PARALLEL=serial`` to force the serial
path globally.  Within a cell, the policy lineup is one
:func:`repro.sim.lanes.run_lanes` call (the compiled kernel takes the lanes
it models, the rest are stepped serially) — again bit-identical, again
wall-clock only.

Workload names are usually catalog entries (``"rsrch_0"``); the form
``"msrc:<path.csv>"`` instead streams a real MSRC trace from disk
chunk-by-chunk (:class:`repro.traces.msrc.StreamingMSRCTrace`), so
full-length captures feed the lanes without materialising the request
list.  ``n_requests`` then caps the streamed prefix and ``seed`` only
seeds the policies.

Every cell runs a **seed axis**, and there is one sweep path: a plain
call is the axis ``(seed,)`` with each result read back out of its
one-value band, so it returns the plain floats it always has.  Pass
``seeds=[...]`` (explicit seed list) or ``n_seeds=N`` (seeds ``seed ..
seed+N-1``) and the same cells run once per seed — the seed replicas
are extra lanes of the cell's one ``run_lanes`` call — and the same
result structure comes back with every numeric
leaf a :class:`~repro.sim.campaign.SeededResult` carrying mean, std,
min/max, and a bootstrap 95% confidence interval.  ``on_cell(key,
result)``, when given, fires as each grid cell completes (completion
order), so long campaigns can stream rows into a report instead of
materialising the full grid first.

Finally, every sweep can be made **durable**: pass ``store=`` (a
:class:`repro.store.CampaignStore` or a path) and each finished cell
persists on disk keyed by its content fingerprint, so re-running the
sweep recomputes nothing that already ran — so rerunning a sweep
killed mid-grid is its resume, dispatching only the missing cells.
Stored cells round-trip losslessly
(``docs/store.md``), so a warm or resumed sweep's tables and JSON
exports are byte-identical to a cold run's; a plain call and an
``n_seeds=1`` campaign address the same blob.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

from .campaign import (
    DEFAULT_WARMUP,
    ORACLE_HORIZONS,
    SeededResult,
    resolve_seeds,
    run_oracle_best,
    seeded_buffer_size_cell,
    seeded_capacity_cell,
    seeded_compare_cell,
    seeded_feature_cell,
    seeded_hyperparameter_cell,
    seeded_mixed_cell,
    seeded_tri_hybrid_cell,
    seeded_unseen_cell,
    standard_policies,
)
from .parallel import Cell, run_grid

__all__ = [
    "DEFAULT_WARMUP",
    "ORACLE_HORIZONS",
    "standard_policies",
    "run_oracle_best",
    "compare_policies",
    "capacity_sweep",
    "hyperparameter_sweep",
    "feature_ablation",
    "buffer_size_sweep",
    "tri_hybrid_comparison",
    "mixed_workload_comparison",
    "unseen_workload_comparison",
]


def _first_seed(result):
    """A banded result structure with every band read back to its first
    seed's value — the inverse of ``aggregate_seeds`` over one seed."""
    if isinstance(result, SeededResult):
        return result.values[0]
    if isinstance(result, Mapping):
        return {key: _first_seed(value) for key, value in result.items()}
    return result


def _run_sweep(
    cell_fn: Callable,
    points: Sequence[Tuple[object, Dict[str, object]]],
    shared: Dict[str, object],
    seed: int,
    seeds: Optional[Sequence[int]],
    n_seeds: Optional[int],
    max_workers: Optional[int],
    on_cell: Optional[Callable],
    store,
) -> Dict[object, object]:
    """Run one sweep's grid: ``{key: result}`` in grid-point order.

    ``points`` holds a ``(key, kwargs)`` pair per grid point; each
    becomes one cell of ``cell_fn`` with the point's kwargs, the
    sweep's ``shared`` kwargs and the resolved seed axis.  Without a
    caller-given axis (``seeds=``/``n_seeds=``) the axis is ``(seed,)``,
    and results and ``on_cell`` payloads are its plain values instead of
    bands.
    """
    banded = seeds is not None or n_seeds is not None
    axis = (
        resolve_seeds(seeds=seeds, n_seeds=n_seeds, base_seed=seed)
        if banded else (seed,)
    )
    cells = [
        Cell(key=key, fn=cell_fn, kwargs=dict(point, seeds=axis, **shared))
        for key, point in points
    ]
    view = (lambda result: result) if banded else _first_seed

    def deliver(key, result):
        on_cell(key, view(result))

    grid = run_grid(
        cells,
        max_workers=max_workers,
        on_cell=deliver if on_cell is not None else None,
        store=store,
    )
    return {key: view(result) for key, result in grid.items()}


def compare_policies(
    workloads: Sequence[str],
    config: str = "H&M",
    n_requests: int = 20_000,
    seed: int = 0,
    warmup_fraction: float = DEFAULT_WARMUP,
    max_workers: Optional[int] = None,
    seeds: Optional[Sequence[int]] = None,
    n_seeds: Optional[int] = None,
    on_cell: Optional[Callable] = None,
    store=None,
) -> Dict[str, Dict[str, Dict[str, object]]]:
    """Fig. 2/9/10/18-style comparison: {workload: {policy: metrics}}.

    With a seed axis (``seeds=`` or ``n_seeds=``), each workload cell
    runs once per seed — the seed replicas are extra lanes of the
    cell — and every metric leaf is a
    :class:`~repro.sim.campaign.SeededResult` confidence band.
    """
    return _run_sweep(
        seeded_compare_cell,
        [(name, dict(workload=name)) for name in workloads],
        dict(
            config=config,
            n_requests=n_requests,
            warmup_fraction=warmup_fraction,
        ),
        seed, seeds, n_seeds, max_workers, on_cell, store,
    )


def capacity_sweep(
    workload: str,
    fractions: Sequence[float],
    config: str = "H&M",
    n_requests: int = 20_000,
    seed: int = 0,
    warmup_fraction: float = DEFAULT_WARMUP,
    max_workers: Optional[int] = None,
    seeds: Optional[Sequence[int]] = None,
    n_seeds: Optional[int] = None,
    on_cell: Optional[Callable] = None,
    store=None,
) -> Dict[float, Dict[str, Dict[str, object]]]:
    """Fig. 15: normalised latency vs available fast-storage capacity."""
    for frac in fractions:
        if frac <= 0:
            raise ValueError("capacity fractions must be positive")
    return _run_sweep(
        seeded_capacity_cell,
        [(frac, dict(frac=frac)) for frac in fractions],
        dict(
            workload=workload,
            config=config,
            n_requests=n_requests,
            warmup_fraction=warmup_fraction,
        ),
        seed, seeds, n_seeds, max_workers, on_cell, store,
    )


def hyperparameter_sweep(
    parameter: str,
    values: Sequence,
    workload: str = "rsrch_0",
    config: str = "H&M",
    n_requests: int = 20_000,
    seed: int = 0,
    warmup_fraction: float = DEFAULT_WARMUP,
    max_workers: Optional[int] = None,
    seeds: Optional[Sequence[int]] = None,
    n_seeds: Optional[int] = None,
    on_cell: Optional[Callable] = None,
    store=None,
) -> Dict[object, Dict[str, object]]:
    """Fig. 14: Sibyl's normalised metrics as one hyper-parameter varies."""
    return _run_sweep(
        seeded_hyperparameter_cell,
        [(value, dict(value=value)) for value in values],
        dict(
            parameter=parameter,
            workload=workload,
            config=config,
            n_requests=n_requests,
            warmup_fraction=warmup_fraction,
        ),
        seed, seeds, n_seeds, max_workers, on_cell, store,
    )


def feature_ablation(
    workloads: Sequence[str],
    feature_sets: Sequence[str],
    config: str = "H&L",
    n_requests: int = 20_000,
    seed: int = 0,
    warmup_fraction: float = DEFAULT_WARMUP,
    max_workers: Optional[int] = None,
    seeds: Optional[Sequence[int]] = None,
    n_seeds: Optional[int] = None,
    on_cell: Optional[Callable] = None,
    store=None,
) -> Dict[str, Dict[str, object]]:
    """Fig. 13: {workload: {feature_set: normalised latency}} on H&L."""
    flat = _run_sweep(
        seeded_feature_cell,
        [
            ((name, fs), dict(workload=name, feature_set=fs))
            for name in workloads
            for fs in feature_sets
        ],
        dict(
            config=config,
            n_requests=n_requests,
            warmup_fraction=warmup_fraction,
        ),
        seed, seeds, n_seeds, max_workers, on_cell, store,
    )
    return {
        name: {fs: flat[(name, fs)] for fs in feature_sets}
        for name in workloads
    }


def buffer_size_sweep(
    sizes: Sequence[int],
    workload: str = "rsrch_0",
    config: str = "H&M",
    n_requests: int = 20_000,
    seed: int = 0,
    warmup_fraction: float = DEFAULT_WARMUP,
    max_workers: Optional[int] = None,
    seeds: Optional[Sequence[int]] = None,
    n_seeds: Optional[int] = None,
    on_cell: Optional[Callable] = None,
    store=None,
) -> Dict[int, object]:
    """Fig. 8: normalised latency vs experience-buffer capacity."""
    return _run_sweep(
        seeded_buffer_size_cell,
        [(size, dict(size=size)) for size in sizes],
        dict(
            workload=workload,
            config=config,
            n_requests=n_requests,
            warmup_fraction=warmup_fraction,
        ),
        seed, seeds, n_seeds, max_workers, on_cell, store,
    )


def tri_hybrid_comparison(
    workloads: Sequence[str],
    config: str = "H&M&L",
    n_requests: int = 20_000,
    seed: int = 0,
    warmup_fraction: float = DEFAULT_WARMUP,
    max_workers: Optional[int] = None,
    seeds: Optional[Sequence[int]] = None,
    n_seeds: Optional[int] = None,
    on_cell: Optional[Callable] = None,
    store=None,
) -> Dict[str, Dict[str, Dict[str, object]]]:
    """Fig. 16: heuristic tri-hybrid vs 3-action Sibyl."""
    return _run_sweep(
        seeded_tri_hybrid_cell,
        [(name, dict(workload=name)) for name in workloads],
        dict(
            config=config,
            n_requests=n_requests,
            warmup_fraction=warmup_fraction,
        ),
        seed, seeds, n_seeds, max_workers, on_cell, store,
    )


def mixed_workload_comparison(
    mixes: Sequence[str],
    config: str = "H&M",
    n_requests_per_component: int = 8_000,
    seed: int = 0,
    warmup_fraction: float = DEFAULT_WARMUP,
    max_workers: Optional[int] = None,
    seeds: Optional[Sequence[int]] = None,
    n_seeds: Optional[int] = None,
    on_cell: Optional[Callable] = None,
    store=None,
) -> Dict[str, Dict[str, Dict[str, object]]]:
    """Fig. 12: Sibyl_Def vs Sibyl_Opt vs baselines on Table 5 mixes."""
    return _run_sweep(
        seeded_mixed_cell,
        [(mix, dict(mix=mix)) for mix in mixes],
        dict(
            config=config,
            n_requests_per_component=n_requests_per_component,
            warmup_fraction=warmup_fraction,
        ),
        seed, seeds, n_seeds, max_workers, on_cell, store,
    )


def unseen_workload_comparison(
    workloads: Sequence[str],
    config: str = "H&M",
    n_requests: int = 20_000,
    seed: int = 0,
    warmup_fraction: float = DEFAULT_WARMUP,
    max_workers: Optional[int] = None,
    seeds: Optional[Sequence[int]] = None,
    n_seeds: Optional[int] = None,
    on_cell: Optional[Callable] = None,
    store=None,
) -> Dict[str, Dict[str, Dict[str, object]]]:
    """Fig. 11: generalisation to FileBench workloads never tuned on."""
    return _run_sweep(
        seeded_unseen_cell,
        [(name, dict(workload=name)) for name in workloads],
        dict(
            config=config,
            n_requests=n_requests,
            warmup_fraction=warmup_fraction,
        ),
        seed, seeds, n_seeds, max_workers, on_cell, store,
    )
