"""Experiment definitions: the sweeps behind each paper figure.

Each function corresponds to one evaluation axis and returns plain
dicts ready for :mod:`repro.sim.report`.  Benchmarks call these with
reduced trace lengths; examples and users can scale ``n_requests`` up.

All experiments measure the steady-state window (default: requests
after a 30% warmup) — the short-trace equivalent of the paper's
multi-hour runs, applied identically to every policy (see
``run_policy``'s docstring).

Every sweep fans its grid out through :func:`repro.sim.parallel.run_many`:
each grid point is a self-contained, deterministically seeded cell (the
cell function rebuilds its trace and policies from primitive parameters
inside the worker), so parallel execution is bit-identical to the
serial path and only wall-clock time changes.  Pass ``max_workers`` to
pin the fan-out, or set ``SIBYL_PARALLEL=serial`` to force the serial
path globally.  Within a cell, the policy lineup advances through the
multi-lane engine (:mod:`repro.sim.lanes`): every policy steps its own
lane in lockstep over the trace, with one fused network forward per
tick across the RL lanes — again bit-identical, again wall-clock only.

Workload names are usually catalog entries (``"rsrch_0"``); the form
``"msrc:<path.csv>"`` instead streams a real MSRC trace from disk
chunk-by-chunk (:class:`repro.traces.msrc.StreamingMSRCTrace`), so
full-length captures feed the lanes without materialising the request
list.  ``n_requests`` then caps the streamed prefix and ``seed`` only
seeds the policies.

Every sweep also takes a **seed axis**: pass ``seeds=[...]`` (explicit
seed list) or ``n_seeds=N`` (seeds ``seed .. seed+N-1``) and the sweep
runs every cell once per seed — the seed replicas ride the multi-lane
engine together (one fused forward per tick across seeds; see
:mod:`repro.sim.campaign`) — and returns the same result structure
with every numeric leaf replaced by a
:class:`~repro.sim.campaign.SeededResult` carrying mean, std, min/max,
and a bootstrap 95% confidence interval.  Without a seed axis the
output is bit-identical to what it always was.  ``on_cell(key,
result)``, when given, fires as each grid cell completes (completion
order), so long campaigns can stream rows into a report instead of
materialising the full grid first.

Finally, every sweep can be made **durable**: pass ``store=`` (a
:class:`repro.store.CampaignStore` or a path) and each finished cell
persists on disk keyed by its content fingerprint, so re-running the
sweep recomputes nothing that already ran — and a sweep killed
mid-grid resumes from its journal, dispatching only the missing cells.
``resume=True`` with no explicit store opens the default
``.sibyl-store/`` directory.  Stored cells round-trip losslessly
(``docs/store.md``), so a warm or resumed sweep's tables and JSON
exports are byte-identical to a cold run's.  The one exception is the
``policies=`` factory path of :func:`compare_policies`: a closure-built
lineup has no content identity, so that path always recomputes.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..baselines import (
    ArchivistPolicy,
    CDEPolicy,
    HPSPolicy,
    OraclePolicy,
    RNNHSSPolicy,
    SlowOnlyPolicy,
    TriHeuristicPolicy,
)
from ..baselines.base import PlacementPolicy
from ..core.agent import SibylAgent
from ..core.hyperparams import SIBYL_DEFAULT, SIBYL_OPT, SibylHyperParams
from ..hss.request import Request
from ..traces.mixer import make_mixed_trace
from ..traces.workloads import make_trace
from .lanes import LaneSpec, run_lanes
from .parallel import Cell, iter_many, run_grid
from .runner import run_normalized, synthetic_trace

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

#: Steady-state measurement window start (fraction of the trace).
DEFAULT_WARMUP = 0.3

#: Reuse-horizon scales searched by the Oracle ("complete knowledge of
#: future access patterns" includes knowing the best admission horizon).
ORACLE_HORIZONS = (2.0, 8.0, 64.0, 1e9)


def standard_policies(
    include_sibyl: bool = True,
    seed: int = 0,
    hyperparams: SibylHyperParams = SIBYL_DEFAULT,
) -> List[PlacementPolicy]:
    """The paper's Fig. 9 lineup minus Fast-Only (reference) and Oracle
    (handled by :func:`run_oracle_best`)."""
    policies: List[PlacementPolicy] = [
        SlowOnlyPolicy(),
        CDEPolicy(),
        HPSPolicy(),
        ArchivistPolicy(seed=seed),
        RNNHSSPolicy(seed=seed),
    ]
    if include_sibyl:
        policies.append(SibylAgent(hyperparams=hyperparams, seed=seed))
    return policies


def run_oracle_best(
    trace: Sequence[Request],
    config: str,
    capacity_fractions: Optional[Sequence[float]] = None,
    warmup_fraction: float = DEFAULT_WARMUP,
):
    """Best Oracle run across admission horizons (lowest avg latency).

    The Oracle has complete future knowledge, which includes choosing
    how aggressively to admit into fast storage; searching a small
    horizon grid realises that.
    """
    results = run_lanes(
        [
            LaneSpec(
                policy=OraclePolicy(horizon_scale=horizon),
                trace=trace,
                config=config,
                capacity_fractions=capacity_fractions,
                warmup_fraction=warmup_fraction,
            )
            for horizon in ORACLE_HORIZONS
        ]
    )
    # min() keeps the first of equals, as the serial search did.
    return min(results, key=lambda result: result.avg_latency_s)


def oracle_row(oracle, reference_row: Dict[str, float]) -> Dict[str, float]:
    """The Oracle's metrics dict, normalised against a Fast-Only row.

    Shared by the single-seed cells here and the multi-seed campaign
    layer (:mod:`repro.sim.campaign`), so both compute the Oracle entry
    from identical expressions.
    """
    reference_latency = reference_row["avg_latency_s"]
    reference_iops = reference_row["raw_iops"]
    return {
        "latency": oracle.avg_latency_s / reference_latency,
        "iops": oracle.iops / reference_iops if reference_iops else 0.0,
        "eviction_fraction": oracle.eviction_fraction,
        "fast_preference": oracle.profile.fast_preference,
        "avg_latency_s": oracle.avg_latency_s,
    }


def _with_oracle(
    lineup: Sequence[PlacementPolicy],
    trace: Sequence[Request],
    config: str,
    capacity_fractions: Optional[Sequence[float]] = None,
    warmup_fraction: float = DEFAULT_WARMUP,
) -> Dict[str, Dict[str, float]]:
    """run_normalized + a best-of-horizons Oracle entry."""
    out = run_normalized(
        lineup,
        trace,
        config=config,
        capacity_fractions=capacity_fractions,
        warmup_fraction=warmup_fraction,
    )
    oracle = run_oracle_best(
        trace, config, capacity_fractions, warmup_fraction
    )
    out["Oracle"] = oracle_row(oracle, out["Fast-Only"])
    return out


# --------------------------------------------------------------------------
# Grid-cell functions.  Each is module-level (picklable) and rebuilds its
# trace + policy lineup from primitive parameters, so a cell computes the
# same result whether it runs inline or in a worker process.
# --------------------------------------------------------------------------

def _resolve_trace(workload: str, n_requests: int, seed: int):
    """A cell's trace source: synthetic catalog entry or streamed MSRC.

    ``"msrc:<path>"`` returns a re-iterable streaming view of the CSV at
    ``<path>`` (capped at ``n_requests``), so even full-length captures
    feed the simulation lanes chunk-by-chunk; anything else is generated
    by the synthetic workload catalog, once per process
    (:func:`repro.sim.runner.synthetic_trace`).
    """
    if workload.startswith("msrc:"):
        from ..traces.msrc import StreamingMSRCTrace

        return StreamingMSRCTrace(workload[5:], max_requests=n_requests)
    return synthetic_trace(workload, n_requests, seed)


# Per-sweep policy lineups, factored out so the single-seed cells below
# and the multi-seed campaign layer (repro.sim.campaign) construct
# *identical* lineups from identical expressions — the precondition for
# a campaign's per-seed rows being bit-identical to single-seed cells.

def _compare_lineup(seed: int) -> List[PlacementPolicy]:
    return standard_policies(seed=seed)


def _capacity_lineup(seed: int) -> List[PlacementPolicy]:
    return [
        CDEPolicy(),
        HPSPolicy(),
        ArchivistPolicy(seed=seed),
        RNNHSSPolicy(seed=seed),
        SibylAgent(seed=seed),
    ]


def _tri_hybrid_lineup(seed: int) -> List[PlacementPolicy]:
    return [
        TriHeuristicPolicy(),
        SibylAgent(seed=seed),
    ]


def _mixed_lineup(seed: int) -> List[PlacementPolicy]:
    sibyl_def = SibylAgent(seed=seed)
    sibyl_def.name = "Sibyl_Def"
    sibyl_opt = SibylAgent(hyperparams=SIBYL_OPT, seed=seed)
    sibyl_opt.name = "Sibyl_Opt"
    return [
        SlowOnlyPolicy(),
        CDEPolicy(),
        HPSPolicy(),
        ArchivistPolicy(seed=seed),
        RNNHSSPolicy(seed=seed),
        sibyl_def,
        sibyl_opt,
    ]


def _unseen_lineup(seed: int) -> List[PlacementPolicy]:
    return [
        SlowOnlyPolicy(),
        ArchivistPolicy(seed=seed),
        RNNHSSPolicy(seed=seed),
        SibylAgent(seed=seed),
    ]


def _compare_cell(
    workload: str,
    config: str,
    n_requests: int,
    seed: int,
    warmup_fraction: float,
) -> Dict[str, Dict[str, float]]:
    trace = _resolve_trace(workload, n_requests, seed)
    lineup = _compare_lineup(seed)
    return _with_oracle(lineup, trace, config, warmup_fraction=warmup_fraction)


def _capacity_cell(
    workload: str,
    frac: float,
    config: str,
    n_requests: int,
    seed: int,
    warmup_fraction: float,
) -> Dict[str, Dict[str, float]]:
    trace = _resolve_trace(workload, n_requests, seed)
    lineup = _capacity_lineup(seed)
    return _with_oracle(
        lineup,
        trace,
        config,
        capacity_fractions=(frac,),
        warmup_fraction=warmup_fraction,
    )


def _hyperparameter_cell(
    parameter: str,
    value,
    workload: str,
    config: str,
    n_requests: int,
    seed: int,
    warmup_fraction: float,
) -> Dict[str, float]:
    trace = _resolve_trace(workload, n_requests, seed)
    hp = SIBYL_DEFAULT.replace(**{parameter: value})
    agent = SibylAgent(hyperparams=hp, seed=seed)
    return run_normalized(
        [agent], trace, config=config, warmup_fraction=warmup_fraction
    )["Sibyl"]


def _feature_cell(
    workload: str,
    feature_set: str,
    config: str,
    n_requests: int,
    seed: int,
    warmup_fraction: float,
) -> float:
    trace = _resolve_trace(workload, n_requests, seed)
    agent = SibylAgent(feature_set=feature_set, seed=seed)
    agent.name = f"Sibyl[{feature_set}]"
    return run_normalized(
        [agent], trace, config=config, warmup_fraction=warmup_fraction
    )[agent.name]["latency"]


def _buffer_size_cell(
    size: int,
    workload: str,
    config: str,
    n_requests: int,
    seed: int,
    warmup_fraction: float,
) -> float:
    trace = _resolve_trace(workload, n_requests, seed)
    hp = SIBYL_DEFAULT.replace(
        buffer_capacity=size,
        batch_size=min(SIBYL_DEFAULT.batch_size, max(1, size)),
    )
    agent = SibylAgent(hyperparams=hp, seed=seed)
    return run_normalized(
        [agent], trace, config=config, warmup_fraction=warmup_fraction
    )["Sibyl"]["latency"]


def _tri_hybrid_cell(
    workload: str,
    config: str,
    n_requests: int,
    seed: int,
    warmup_fraction: float,
) -> Dict[str, Dict[str, float]]:
    trace = _resolve_trace(workload, n_requests, seed)
    lineup = _tri_hybrid_lineup(seed)
    return run_normalized(
        lineup, trace, config=config, warmup_fraction=warmup_fraction
    )


def _mixed_cell(
    mix: str,
    config: str,
    n_requests_per_component: int,
    seed: int,
    warmup_fraction: float,
) -> Dict[str, Dict[str, float]]:
    trace = make_mixed_trace(
        mix, n_requests_per_component=n_requests_per_component, seed=seed
    )
    lineup = _mixed_lineup(seed)
    return _with_oracle(lineup, trace, config, warmup_fraction=warmup_fraction)


def _unseen_cell(
    workload: str,
    config: str,
    n_requests: int,
    seed: int,
    warmup_fraction: float,
) -> Dict[str, Dict[str, float]]:
    trace = _resolve_trace(workload, n_requests, seed)
    lineup = _unseen_lineup(seed)
    return _with_oracle(lineup, trace, config, warmup_fraction=warmup_fraction)


# --------------------------------------------------------------------------
# Public sweeps: build the grid, fan it out, merge the results.
# --------------------------------------------------------------------------

def _seed_axis(seeds, n_seeds, base_seed) -> Optional[Tuple[int, ...]]:
    """The sweep's resolved seed axis, or None for the legacy path.

    Lazy import: :mod:`repro.sim.campaign` builds on this module, so
    the dependency must point campaign → experiment at import time.
    """
    if seeds is None and n_seeds is None:
        return None
    from .campaign import resolve_seeds

    return resolve_seeds(seeds=seeds, n_seeds=n_seeds, base_seed=base_seed)


def _campaign_store(store, resume: bool):
    """Resolve a sweep's ``store=``/``resume=`` pair into a store.

    ``store`` may be a :class:`repro.store.CampaignStore`, a path to
    one, or ``None``; ``resume=True`` without an explicit store opens
    the default store directory (``.sibyl-store/``), which is what
    "resume the campaign I just lost" should mean with no ceremony.
    Returns ``None`` when the sweep runs undurably.
    """
    from ..store import DEFAULT_STORE_DIR, resolve_store

    if store is None and resume:
        store = DEFAULT_STORE_DIR
    return resolve_store(store)


def compare_policies(
    workloads: Sequence[str],
    config: str = "H&M",
    n_requests: int = 20_000,
    seed: int = 0,
    policies: Optional[Callable[[], List[PlacementPolicy]]] = None,
    warmup_fraction: float = DEFAULT_WARMUP,
    max_workers: Optional[int] = None,
    seeds: Optional[Sequence[int]] = None,
    n_seeds: Optional[int] = None,
    on_cell: Optional[Callable] = None,
    store=None,
    resume: bool = False,
) -> Dict[str, Dict[str, Dict[str, object]]]:
    """Fig. 2/9/10/18-style comparison: {workload: {policy: metrics}}.

    With a seed axis (``seeds=`` or ``n_seeds=``), each workload cell
    runs once per seed — the seed replicas ride the multi-lane engine
    together — and every metric leaf is a
    :class:`~repro.sim.campaign.SeededResult` confidence band.

    A custom ``policies`` factory (often a closure) cannot be shipped to
    worker processes, so that path runs serially in-process (the seed
    axis still rides lanes there; the factory is called once per seed
    and owns any policy seeding itself).
    """
    seed_axis = _seed_axis(seeds, n_seeds, seed)
    store = _campaign_store(store, resume)
    if policies is not None:
        out: Dict[str, Dict[str, Dict[str, object]]] = {}
        for name in workloads:
            if seed_axis is None:
                trace = make_trace(name, n_requests=n_requests, seed=seed)
                out[name] = _with_oracle(
                    policies(), trace, config, warmup_fraction=warmup_fraction
                )
            else:
                from .campaign import aggregate_seeds, run_seeded_normalized

                per_seed = run_seeded_normalized(
                    seed_axis,
                    [
                        make_trace(name, n_requests=n_requests, seed=s)
                        for s in seed_axis
                    ],
                    [policies() for _ in seed_axis],
                    config=config,
                    warmup_fraction=warmup_fraction,
                    with_oracle=True,
                )
                out[name] = aggregate_seeds(per_seed, seeds=seed_axis)
            if on_cell is not None:
                on_cell(name, out[name])
        return out
    if seed_axis is not None:
        from .campaign import seeded_compare_cell

        cells = [
            Cell(
                key=name,
                fn=seeded_compare_cell,
                kwargs=dict(
                    workload=name,
                    config=config,
                    n_requests=n_requests,
                    seeds=seed_axis,
                    warmup_fraction=warmup_fraction,
                ),
            )
            for name in workloads
        ]
        return run_grid(cells, max_workers=max_workers, on_cell=on_cell, store=store)
    cells = [
        Cell(
            key=name,
            fn=_compare_cell,
            kwargs=dict(
                workload=name,
                config=config,
                n_requests=n_requests,
                seed=seed,
                warmup_fraction=warmup_fraction,
            ),
        )
        for name in workloads
    ]
    return run_grid(cells, max_workers=max_workers, on_cell=on_cell, store=store)


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
    resume: bool = False,
) -> Dict[float, Dict[str, Dict[str, object]]]:
    """Fig. 15: normalised latency vs available fast-storage capacity."""
    for frac in fractions:
        if frac <= 0:
            raise ValueError("capacity fractions must be positive")
    seed_axis = _seed_axis(seeds, n_seeds, seed)
    store = _campaign_store(store, resume)
    if seed_axis is not None:
        from .campaign import seeded_capacity_cell

        cells = [
            Cell(
                key=frac,
                fn=seeded_capacity_cell,
                kwargs=dict(
                    workload=workload,
                    frac=frac,
                    config=config,
                    n_requests=n_requests,
                    seeds=seed_axis,
                    warmup_fraction=warmup_fraction,
                ),
            )
            for frac in fractions
        ]
        return run_grid(cells, max_workers=max_workers, on_cell=on_cell, store=store)
    cells = [
        Cell(
            key=frac,
            fn=_capacity_cell,
            kwargs=dict(
                workload=workload,
                frac=frac,
                config=config,
                n_requests=n_requests,
                seed=seed,
                warmup_fraction=warmup_fraction,
            ),
        )
        for frac in fractions
    ]
    return run_grid(cells, max_workers=max_workers, on_cell=on_cell, store=store)


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
    resume: bool = False,
) -> Dict[object, Dict[str, object]]:
    """Fig. 14: Sibyl's normalised metrics as one hyper-parameter varies."""
    seed_axis = _seed_axis(seeds, n_seeds, seed)
    store = _campaign_store(store, resume)
    if seed_axis is not None:
        from .campaign import seeded_hyperparameter_cell

        cells = [
            Cell(
                key=value,
                fn=seeded_hyperparameter_cell,
                kwargs=dict(
                    parameter=parameter,
                    value=value,
                    workload=workload,
                    config=config,
                    n_requests=n_requests,
                    seeds=seed_axis,
                    warmup_fraction=warmup_fraction,
                ),
            )
            for value in values
        ]
        return run_grid(cells, max_workers=max_workers, on_cell=on_cell, store=store)
    cells = [
        Cell(
            key=value,
            fn=_hyperparameter_cell,
            kwargs=dict(
                parameter=parameter,
                value=value,
                workload=workload,
                config=config,
                n_requests=n_requests,
                seed=seed,
                warmup_fraction=warmup_fraction,
            ),
        )
        for value in values
    ]
    return run_grid(cells, max_workers=max_workers, on_cell=on_cell, store=store)


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
    resume: bool = False,
) -> Dict[str, Dict[str, object]]:
    """Fig. 13: {workload: {feature_set: normalised latency}} on H&L."""
    seed_axis = _seed_axis(seeds, n_seeds, seed)
    store = _campaign_store(store, resume)
    if seed_axis is not None:
        from .campaign import seeded_feature_cell

        cells = [
            Cell(
                key=(name, fs),
                fn=seeded_feature_cell,
                kwargs=dict(
                    workload=name,
                    feature_set=fs,
                    config=config,
                    n_requests=n_requests,
                    seeds=seed_axis,
                    warmup_fraction=warmup_fraction,
                ),
            )
            for name in workloads
            for fs in feature_sets
        ]
    else:
        cells = [
            Cell(
                key=(name, fs),
                fn=_feature_cell,
                kwargs=dict(
                    workload=name,
                    feature_set=fs,
                    config=config,
                    n_requests=n_requests,
                    seed=seed,
                    warmup_fraction=warmup_fraction,
                ),
            )
            for name in workloads
            for fs in feature_sets
        ]
    collected: Dict[str, Dict[str, object]] = {name: {} for name in workloads}
    for (name, fs), latency in iter_many(cells, max_workers=max_workers, store=store):
        if on_cell is not None:
            on_cell((name, fs), latency)
        collected[name][fs] = latency
    # Completion order may interleave; re-key in grid order.
    return {
        name: {fs: collected[name][fs] for fs in feature_sets}
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
    resume: bool = False,
) -> Dict[int, object]:
    """Fig. 8: normalised latency vs experience-buffer capacity."""
    seed_axis = _seed_axis(seeds, n_seeds, seed)
    store = _campaign_store(store, resume)
    if seed_axis is not None:
        from .campaign import seeded_buffer_size_cell

        cells = [
            Cell(
                key=size,
                fn=seeded_buffer_size_cell,
                kwargs=dict(
                    size=size,
                    workload=workload,
                    config=config,
                    n_requests=n_requests,
                    seeds=seed_axis,
                    warmup_fraction=warmup_fraction,
                ),
            )
            for size in sizes
        ]
        return run_grid(cells, max_workers=max_workers, on_cell=on_cell, store=store)
    cells = [
        Cell(
            key=size,
            fn=_buffer_size_cell,
            kwargs=dict(
                size=size,
                workload=workload,
                config=config,
                n_requests=n_requests,
                seed=seed,
                warmup_fraction=warmup_fraction,
            ),
        )
        for size in sizes
    ]
    return run_grid(cells, max_workers=max_workers, on_cell=on_cell, store=store)


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
    resume: bool = False,
) -> Dict[str, Dict[str, Dict[str, object]]]:
    """Fig. 16: heuristic tri-hybrid vs 3-action Sibyl."""
    seed_axis = _seed_axis(seeds, n_seeds, seed)
    store = _campaign_store(store, resume)
    if seed_axis is not None:
        from .campaign import seeded_tri_hybrid_cell

        cells = [
            Cell(
                key=name,
                fn=seeded_tri_hybrid_cell,
                kwargs=dict(
                    workload=name,
                    config=config,
                    n_requests=n_requests,
                    seeds=seed_axis,
                    warmup_fraction=warmup_fraction,
                ),
            )
            for name in workloads
        ]
        return run_grid(cells, max_workers=max_workers, on_cell=on_cell, store=store)
    cells = [
        Cell(
            key=name,
            fn=_tri_hybrid_cell,
            kwargs=dict(
                workload=name,
                config=config,
                n_requests=n_requests,
                seed=seed,
                warmup_fraction=warmup_fraction,
            ),
        )
        for name in workloads
    ]
    return run_grid(cells, max_workers=max_workers, on_cell=on_cell, store=store)


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
    resume: bool = False,
) -> Dict[str, Dict[str, Dict[str, object]]]:
    """Fig. 12: Sibyl_Def vs Sibyl_Opt vs baselines on Table 5 mixes."""
    seed_axis = _seed_axis(seeds, n_seeds, seed)
    store = _campaign_store(store, resume)
    if seed_axis is not None:
        from .campaign import seeded_mixed_cell

        cells = [
            Cell(
                key=mix,
                fn=seeded_mixed_cell,
                kwargs=dict(
                    mix=mix,
                    config=config,
                    n_requests_per_component=n_requests_per_component,
                    seeds=seed_axis,
                    warmup_fraction=warmup_fraction,
                ),
            )
            for mix in mixes
        ]
        return run_grid(cells, max_workers=max_workers, on_cell=on_cell, store=store)
    cells = [
        Cell(
            key=mix,
            fn=_mixed_cell,
            kwargs=dict(
                mix=mix,
                config=config,
                n_requests_per_component=n_requests_per_component,
                seed=seed,
                warmup_fraction=warmup_fraction,
            ),
        )
        for mix in mixes
    ]
    return run_grid(cells, max_workers=max_workers, on_cell=on_cell, store=store)


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
    resume: bool = False,
) -> Dict[str, Dict[str, Dict[str, object]]]:
    """Fig. 11: generalisation to FileBench workloads never tuned on."""
    seed_axis = _seed_axis(seeds, n_seeds, seed)
    store = _campaign_store(store, resume)
    if seed_axis is not None:
        from .campaign import seeded_unseen_cell

        cells = [
            Cell(
                key=name,
                fn=seeded_unseen_cell,
                kwargs=dict(
                    workload=name,
                    config=config,
                    n_requests=n_requests,
                    seeds=seed_axis,
                    warmup_fraction=warmup_fraction,
                ),
            )
            for name in workloads
        ]
        return run_grid(cells, max_workers=max_workers, on_cell=on_cell, store=store)
    cells = [
        Cell(
            key=name,
            fn=_unseen_cell,
            kwargs=dict(
                workload=name,
                config=config,
                n_requests=n_requests,
                seed=seed,
                warmup_fraction=warmup_fraction,
            ),
        )
        for name in workloads
    ]
    return run_grid(cells, max_workers=max_workers, on_cell=on_cell, store=store)
