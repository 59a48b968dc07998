"""The sweep cell: what one grid point computes, over a seed axis.

Every sweep of :mod:`repro.sim.experiment` is a grid of the cells
defined here, and every cell runs a **seed axis**: a ``seeds`` tuple,
one trace and one policy lineup per seed.  A single-seed sweep is the
axis of length one — there is no second, unseeded cell — so this module
is where every figure's numbers are computed, whether the caller asked
for a point estimate or for confidence bands.  The per-seed metric
values collapse into a :class:`SeededResult` carrying mean, standard
deviation, min/max, and a bootstrap 95% confidence interval; a sweep
called without ``seeds=``/``n_seeds=`` reads each band's one value back
out (``experiment`` does that), which is why its output is the plain
floats it always was.

The seed axis rides the engines underneath:

* **Across processes** — the grid fans out through
  :func:`repro.sim.parallel.run_grid`; each parallel task carries one
  grid cell *with its whole seed axis inside*.
* **Within a process** — a cell's seed replicas are **extra lanes** of
  one :func:`repro.sim.lanes.run_lanes` call, made by
  :func:`run_seeded_normalized`, the one place a lineup is run against
  its Fast-Only reference (``runner.run_normalized`` is its one-seed
  call): the compiled kernel takes every lane it models (all of a
  default paper lineup), the rest are stepped serially.  N seeds cost N
  times one seed's simulation; each seed's trace is generated and
  packed once per process (:func:`repro.sim.runner.synthetic_trace`).

The hard guarantee is inherited from ``run_lanes`` and asserted by
``tests/sim/test_campaign.py``: each seed's trajectory in a campaign is
**bit-identical** to the corresponding serial ``run_policy`` run — a
campaign changes how much you know about variance, never the numbers
themselves.

Layering: :mod:`repro.sim.experiment` imports this module, never the
reverse.  What a cell is made of lives here — the per-sweep lineups,
the trace resolver, the best-of-horizons Oracle — and each
``seeded_*_cell`` is a declaration over them (trace source, lineup,
Oracle yes/no, projection).  ``experiment`` names the grids and
publishes ``standard_policies``/``run_oracle_best``/``DEFAULT_WARMUP``/
``ORACLE_HORIZONS`` under their historical import path.

Imports: a store hit imports this module — for the cell function's
address, :class:`SeededResult` and :func:`resolve_seeds` — and must not
pay for the engine, so NumPy, the policies, the agent, ``lanes`` and
``runner`` are imported inside the functions that execute a cell, never
at module top (``tests/test_import_budget.py``).

Durability: the cell functions' qualified names and kwargs are the
store's addresses (:mod:`repro.store.fingerprint`), one blob per grid
cell holding that cell's whole aggregated seed axis (the seed tuple is
part of the fingerprint, so changing the axis re-simulates; a
single-seed sweep and an ``n_seeds=1`` campaign share one blob).
:class:`SeededResult` bands round-trip the store losslessly
(:mod:`repro.store.serialize` rebuilds real instances), which is why a
warm campaign's tables and JSON exports are byte-identical to a cold
run's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.hyperparams import SIBYL_DEFAULT, SIBYL_OPT, SibylHyperParams

if TYPE_CHECKING:
    from ..baselines.base import PlacementPolicy
    from ..core.agent import SibylAgent
    from ..hss.request import Request

__all__ = [
    "SeededResult",
    "resolve_seeds",
    "bootstrap_ci",
    "aggregate_seeds",
    "run_seeded_normalized",
    "compare_cell_seeds",
    "seeded_compare_cell",
    "seeded_capacity_cell",
    "seeded_hyperparameter_cell",
    "seeded_feature_cell",
    "seeded_buffer_size_cell",
    "seeded_tri_hybrid_cell",
    "seeded_mixed_cell",
    "seeded_unseen_cell",
]

#: Steady-state measurement window start (fraction of the trace).
DEFAULT_WARMUP = 0.3

#: Reuse-horizon scales searched by the Oracle ("complete knowledge of
#: future access patterns" includes knowing the best admission horizon).
ORACLE_HORIZONS = (2.0, 8.0, 64.0, 1e9)

#: Bootstrap resamples behind every 95% confidence interval.  Fixed (and
#: drawn from a fixed-seed generator) so a campaign's bands are exactly
#: reproducible run to run.
BOOTSTRAP_RESAMPLES = 1000

#: Confidence level of the reported interval.
CONFIDENCE = 0.95


def resolve_seeds(
    seeds: Optional[Sequence[int]] = None,
    n_seeds: Optional[int] = None,
    base_seed: int = 0,
) -> Tuple[int, ...]:
    """Normalise a sweep's seed-axis arguments into a seed tuple.

    Exactly one of ``seeds`` (explicit list) and ``n_seeds`` (the seeds
    ``base_seed .. base_seed + n_seeds - 1``) must be given.  Seeds
    must be non-empty and unique — a duplicated seed would silently
    double-weight one replicate in every aggregate.
    """
    if (seeds is None) == (n_seeds is None):
        raise ValueError("pass exactly one of seeds= and n_seeds=")
    if seeds is None:
        n = int(n_seeds)  # type: ignore[arg-type]
        if n < 1:
            raise ValueError(f"n_seeds must be >= 1, got {n_seeds!r}")
        return tuple(int(base_seed) + i for i in range(n))
    axis = tuple(int(s) for s in seeds)
    if not axis:
        raise ValueError("seeds must be non-empty")
    if len(set(axis)) != len(axis):
        raise ValueError(f"seeds must be unique, got {axis}")
    return axis


def bootstrap_ci(
    values: Sequence[float],
    confidence: float = CONFIDENCE,
    n_resamples: int = BOOTSTRAP_RESAMPLES,
    rng_seed: int = 0,
) -> Tuple[float, float]:
    """Percentile-bootstrap confidence interval for the mean.

    Resamples ``values`` with replacement ``n_resamples`` times and
    returns the ``(1-confidence)/2`` and ``1-(1-confidence)/2``
    quantiles of the resampled means.  With a single value the interval
    degenerates to that value.  Deterministic: the resampling generator
    is seeded by ``rng_seed``, never by global state.
    """
    import numpy as np

    data = np.asarray(list(values), dtype=float)
    n = data.size
    if n == 0:
        raise ValueError("bootstrap_ci of empty sequence")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if n == 1:
        return float(data[0]), float(data[0])
    rng = np.random.default_rng(rng_seed)
    indices = rng.integers(0, n, size=(int(n_resamples), n))
    means = data[indices].mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    lo, hi = np.quantile(means, [alpha, 1.0 - alpha])
    return float(lo), float(hi)


@dataclass(frozen=True)
class SeededResult:
    """One metric aggregated across a campaign's seed axis.

    Carries the raw per-seed ``values`` (aligned with ``seeds`` when
    known) plus the summary statistics every figure band needs: mean,
    sample standard deviation (ddof=1; 0.0 for a single seed), min/max,
    and a bootstrap 95% confidence interval ``[ci_lo, ci_hi]`` for the
    mean.  Renders as ``mean ±half-width`` in report tables
    (:func:`repro.sim.report.format_band`) and exports losslessly via
    :func:`repro.sim.report.to_jsonable`.
    """

    values: Tuple[float, ...]
    mean: float
    std: float
    min: float
    max: float
    ci_lo: float
    ci_hi: float
    seeds: Optional[Tuple[int, ...]] = None

    @classmethod
    def from_values(
        cls,
        values: Sequence[float],
        seeds: Optional[Sequence[int]] = None,
        confidence: float = CONFIDENCE,
        n_resamples: int = BOOTSTRAP_RESAMPLES,
    ) -> "SeededResult":
        """Aggregate per-seed metric values into a banded statistic."""
        import numpy as np

        data = tuple(float(v) for v in values)
        if not data:
            raise ValueError("SeededResult of empty values")
        if seeds is not None and len(seeds) != len(data):
            raise ValueError(
                f"{len(seeds)} seeds for {len(data)} values"
            )
        arr = np.asarray(data)
        ci_lo, ci_hi = bootstrap_ci(
            data, confidence=confidence, n_resamples=n_resamples
        )
        return cls(
            values=data,
            mean=float(arr.mean()),
            std=float(arr.std(ddof=1)) if len(data) > 1 else 0.0,
            min=float(arr.min()),
            max=float(arr.max()),
            ci_lo=ci_lo,
            ci_hi=ci_hi,
            seeds=tuple(int(s) for s in seeds) if seeds is not None else None,
        )


def aggregate_seeds(per_seed: Sequence, seeds: Optional[Sequence[int]] = None):
    """Collapse per-seed sweep outputs into one banded structure.

    ``per_seed`` holds one result per seed, all with the same shape
    (arbitrarily nested dicts of metrics, or bare numbers).  The
    returned structure mirrors that shape with every numeric leaf
    replaced by a :class:`SeededResult` over the seed axis; non-numeric
    leaves (names, labels) keep the first seed's value.
    """
    import numpy as np

    per_seed = list(per_seed)
    if not per_seed:
        raise ValueError("aggregate_seeds of empty per-seed results")
    first = per_seed[0]
    if isinstance(first, Mapping):
        return {
            key: aggregate_seeds([entry[key] for entry in per_seed], seeds)
            for key in first
        }
    if isinstance(first, (int, float, np.integer, np.floating)) and not isinstance(
        first, bool
    ):
        return SeededResult.from_values(per_seed, seeds=seeds)
    return first


# --------------------------------------------------------------------------
# What a cell is made of: policy lineups, the trace source, the Oracle.
# --------------------------------------------------------------------------

def standard_policies(
    include_sibyl: bool = True,
    seed: int = 0,
    hyperparams: SibylHyperParams = SIBYL_DEFAULT,
) -> List[PlacementPolicy]:
    """The paper's Fig. 9 lineup minus Fast-Only (reference) and Oracle
    (handled by :func:`run_oracle_best`)."""
    from ..baselines import (
        ArchivistPolicy,
        CDEPolicy,
        HPSPolicy,
        RNNHSSPolicy,
        SlowOnlyPolicy,
    )

    policies: List[PlacementPolicy] = [
        SlowOnlyPolicy(),
        CDEPolicy(),
        HPSPolicy(),
        ArchivistPolicy(seed=seed),
        RNNHSSPolicy(seed=seed),
    ]
    if include_sibyl:
        policies.append(_sibyl(seed, hyperparams=hyperparams))
    return policies


def _sibyl(seed: int, name: Optional[str] = None, **kwargs) -> SibylAgent:
    """One Sibyl lane; ``name`` relabels its column in the result row."""
    from ..core.agent import SibylAgent

    agent = SibylAgent(seed=seed, **kwargs)
    if name is not None:
        agent.name = name
    return agent


def _compare_lineup(seed: int) -> List[PlacementPolicy]:
    return standard_policies(seed=seed)


def _capacity_lineup(seed: int) -> List[PlacementPolicy]:
    from ..baselines import ArchivistPolicy, CDEPolicy, HPSPolicy, RNNHSSPolicy

    return [
        CDEPolicy(),
        HPSPolicy(),
        ArchivistPolicy(seed=seed),
        RNNHSSPolicy(seed=seed),
        _sibyl(seed),
    ]


def _tri_hybrid_lineup(seed: int) -> List[PlacementPolicy]:
    from ..baselines import TriHeuristicPolicy

    return [TriHeuristicPolicy(), _sibyl(seed)]


def _mixed_lineup(seed: int) -> List[PlacementPolicy]:
    return standard_policies(include_sibyl=False, seed=seed) + [
        _sibyl(seed, "Sibyl_Def"),
        _sibyl(seed, "Sibyl_Opt", hyperparams=SIBYL_OPT),
    ]


def _unseen_lineup(seed: int) -> List[PlacementPolicy]:
    from ..baselines import ArchivistPolicy, RNNHSSPolicy, SlowOnlyPolicy

    return [
        SlowOnlyPolicy(),
        ArchivistPolicy(seed=seed),
        RNNHSSPolicy(seed=seed),
        _sibyl(seed),
    ]


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
    from .runner import synthetic_trace

    return synthetic_trace(workload, n_requests, seed)


def run_oracle_best(
    trace: Sequence[Request],
    config: str,
    capacity_fractions: Optional[Sequence[float]] = None,
    warmup_fraction: float = DEFAULT_WARMUP,
):
    """Best Oracle run across admission horizons (lowest avg latency).

    The Oracle has complete future knowledge, which includes choosing
    how aggressively to admit into fast storage; searching a small
    horizon grid realises that.  The horizons replay one trace, so they
    share one future-use index.
    """
    from ..baselines.oracle import FutureUseIndex, OraclePolicy
    from .lanes import LaneSpec, run_lanes

    policies = [OraclePolicy(horizon_scale=h) for h in ORACLE_HORIZONS]
    index = FutureUseIndex()
    for policy in policies:
        policy.index = index
    results = run_lanes(
        [
            LaneSpec(
                policy=policy,
                trace=trace,
                config=config,
                capacity_fractions=capacity_fractions,
                warmup_fraction=warmup_fraction,
            )
            for policy in policies
        ]
    )
    # min() keeps the first of equals, as the serial search did.
    return min(results, key=lambda result: result.avg_latency_s)


def oracle_row(oracle, reference_row: Dict[str, float]) -> Dict[str, float]:
    """The Oracle's metrics dict, normalised against a Fast-Only row."""
    reference_latency = reference_row["avg_latency_s"]
    reference_iops = reference_row["raw_iops"]
    return {
        "latency": oracle.avg_latency_s / reference_latency,
        "iops": oracle.iops / reference_iops if reference_iops else 0.0,
        "eviction_fraction": oracle.eviction_fraction,
        "fast_preference": oracle.profile.fast_preference,
        "avg_latency_s": oracle.avg_latency_s,
    }


# --------------------------------------------------------------------------
# The seed-axis core: one run_lanes call for a whole seed axis.
# --------------------------------------------------------------------------

def run_seeded_normalized(
    seeds: Sequence[int],
    traces: Sequence,
    lineups: Sequence[Sequence],
    config: str = "H&M",
    capacity_fractions: Optional[Sequence[float]] = None,
    max_requests: Optional[int] = None,
    warmup_fraction: float = 0.0,
    with_oracle: bool = False,
    stats: Optional[Dict[str, int]] = None,
    backend: Optional[str] = None,
) -> List[Dict[str, Dict[str, float]]]:
    """Run one cell's whole seed axis through a single ``run_lanes`` call.

    ``traces[i]`` and ``lineups[i]`` belong to ``seeds[i]``; every
    (seed, policy) pair becomes one lane of one
    :func:`repro.sim.lanes.run_lanes` call, so kernel-eligible lanes
    run in the compiled kernel and the rest are stepped serially.  Returns
    one ``{policy_name: metrics}`` dict per seed, latency and IOPS
    normalised to that seed's Fast-Only reference run — bit-identical
    to running that seed's lineup alone, because lane results never
    depend on co-lanes (:func:`repro.sim.runner.run_normalized` *is*
    the one-seed call).  ``with_oracle`` adds each seed's
    best-of-horizons Oracle entry.  ``stats`` is forwarded to
    ``run_lanes`` for engine counters (see there) and ``backend``
    overrides the engine choice.
    """
    from .lanes import LaneSpec, run_lanes
    from .runner import normalized_row, reference_row, run_reference

    seeds = list(seeds)
    lineups = [list(lineup) for lineup in lineups]
    # A one-shot iterator can feed at most one lane; materialise it once
    # so the reference run and every policy lane see the full trace.
    traces = [
        trace
        if isinstance(trace, (list, tuple))
        or (hasattr(trace, "__len__") and hasattr(trace, "__iter__"))
        else list(trace)
        for trace in traces
    ]
    if not (len(seeds) == len(traces) == len(lineups)):
        raise ValueError(
            f"seed axis misaligned: {len(seeds)} seeds, "
            f"{len(traces)} traces, {len(lineups)} lineups"
        )
    references = [
        run_reference(
            trace,
            config=config,
            max_requests=max_requests,
            warmup_fraction=warmup_fraction,
        )
        for trace in traces
    ]
    specs = [
        LaneSpec(
            policy=policy,
            trace=trace,
            config=config,
            capacity_fractions=capacity_fractions,
            max_requests=max_requests,
            warmup_fraction=warmup_fraction,
        )
        for trace, lineup in zip(traces, lineups)
        for policy in lineup
    ]
    results = run_lanes(specs, stats=stats, backend=backend)
    out: List[Dict[str, Dict[str, float]]] = []
    cursor = 0
    for trace, lineup, reference in zip(traces, lineups, references):
        row: Dict[str, Dict[str, float]] = {
            "Fast-Only": reference_row(reference)
        }
        for _ in lineup:
            result = results[cursor]
            cursor += 1
            row[result.policy] = normalized_row(result, reference)
        if with_oracle:
            oracle = run_oracle_best(
                trace, config, capacity_fractions, warmup_fraction
            )
            row["Oracle"] = oracle_row(oracle, row["Fast-Only"])
        out.append(row)
    return out


# --------------------------------------------------------------------------
# The grid cells.  Module-level (picklable, fingerprintable) functions of
# primitive parameters: each rebuilds its traces and lineups per seed, so
# a cell computes the same result inline, in a worker, or from the store.
# --------------------------------------------------------------------------

def _banded_cell(
    seeds: Sequence[int],
    trace: Callable[[int], Sequence[Request]],
    lineup: Callable[[int], List[PlacementPolicy]],
    config: str,
    warmup_fraction: float,
    project: Optional[Callable] = None,
    **core,
):
    """One cell: ``trace(seed)`` under ``lineup(seed)`` for every seed
    in one lane-engine call, each seed's row passed through ``project``
    (when given), aggregated into bands over the axis."""
    per_seed = run_seeded_normalized(
        seeds,
        [trace(s) for s in seeds],
        [lineup(s) for s in seeds],
        config=config,
        warmup_fraction=warmup_fraction,
        **core,
    )
    if project is not None:
        per_seed = [project(row) for row in per_seed]
    return aggregate_seeds(per_seed, seeds=seeds)


def compare_cell_seeds(
    workload: str,
    config: str,
    n_requests: int,
    seeds: Sequence[int],
    warmup_fraction: float = DEFAULT_WARMUP,
    stats: Optional[Dict[str, int]] = None,
) -> List[Dict[str, Dict[str, float]]]:
    """Per-seed (pre-aggregation) results of one comparison cell.

    Element ``i`` is exactly the serial result for ``seed=seeds[i]`` —
    the bit-identity contract tests pin this with float equality.
    """
    return run_seeded_normalized(
        seeds,
        [_resolve_trace(workload, n_requests, s) for s in seeds],
        [_compare_lineup(s) for s in seeds],
        config=config,
        warmup_fraction=warmup_fraction,
        with_oracle=True,
        stats=stats,
    )


def seeded_compare_cell(
    workload: str,
    config: str,
    n_requests: int,
    seeds: Sequence[int],
    warmup_fraction: float = DEFAULT_WARMUP,
) -> Dict[str, Dict[str, SeededResult]]:
    """One comparison cell with confidence bands over the seed axis."""
    return aggregate_seeds(
        compare_cell_seeds(
            workload, config, n_requests, seeds, warmup_fraction
        ),
        seeds=seeds,
    )


def seeded_capacity_cell(
    workload: str,
    frac: float,
    config: str,
    n_requests: int,
    seeds: Sequence[int],
    warmup_fraction: float = DEFAULT_WARMUP,
) -> Dict[str, Dict[str, SeededResult]]:
    """One capacity-sweep point with confidence bands over seeds."""
    return _banded_cell(
        seeds,
        partial(_resolve_trace, workload, n_requests),
        _capacity_lineup,
        config,
        warmup_fraction,
        capacity_fractions=(frac,),
        with_oracle=True,
    )


def seeded_hyperparameter_cell(
    parameter: str,
    value,
    workload: str,
    config: str,
    n_requests: int,
    seeds: Sequence[int],
    warmup_fraction: float = DEFAULT_WARMUP,
) -> Dict[str, SeededResult]:
    """One hyper-parameter point: Sibyl's banded normalised metrics."""
    hp = SIBYL_DEFAULT.replace(**{parameter: value})
    return _banded_cell(
        seeds,
        partial(_resolve_trace, workload, n_requests),
        lambda s: [_sibyl(s, hyperparams=hp)],
        config,
        warmup_fraction,
        project=itemgetter("Sibyl"),
    )


def seeded_feature_cell(
    workload: str,
    feature_set: str,
    config: str,
    n_requests: int,
    seeds: Sequence[int],
    warmup_fraction: float = DEFAULT_WARMUP,
) -> SeededResult:
    """One feature-ablation point: banded normalised latency."""
    name = f"Sibyl[{feature_set}]"
    return _banded_cell(
        seeds,
        partial(_resolve_trace, workload, n_requests),
        lambda s: [_sibyl(s, name, feature_set=feature_set)],
        config,
        warmup_fraction,
        project=lambda row: row[name]["latency"],
    )


def seeded_buffer_size_cell(
    size: int,
    workload: str,
    config: str,
    n_requests: int,
    seeds: Sequence[int],
    warmup_fraction: float = DEFAULT_WARMUP,
) -> SeededResult:
    """One buffer-size point: banded normalised latency."""
    hp = SIBYL_DEFAULT.replace(
        buffer_capacity=size,
        batch_size=min(SIBYL_DEFAULT.batch_size, max(1, size)),
    )
    return _banded_cell(
        seeds,
        partial(_resolve_trace, workload, n_requests),
        lambda s: [_sibyl(s, hyperparams=hp)],
        config,
        warmup_fraction,
        project=lambda row: row["Sibyl"]["latency"],
    )


def seeded_tri_hybrid_cell(
    workload: str,
    config: str,
    n_requests: int,
    seeds: Sequence[int],
    warmup_fraction: float = DEFAULT_WARMUP,
) -> Dict[str, Dict[str, SeededResult]]:
    """One tri-hybrid cell with confidence bands over seeds."""
    return _banded_cell(
        seeds,
        partial(_resolve_trace, workload, n_requests),
        _tri_hybrid_lineup,
        config,
        warmup_fraction,
    )


def seeded_mixed_cell(
    mix: str,
    config: str,
    n_requests_per_component: int,
    seeds: Sequence[int],
    warmup_fraction: float = DEFAULT_WARMUP,
) -> Dict[str, Dict[str, SeededResult]]:
    """One mixed-workload cell with confidence bands over seeds."""
    from ..traces.mixer import make_mixed_trace

    return _banded_cell(
        seeds,
        lambda s: make_mixed_trace(
            mix, n_requests_per_component=n_requests_per_component, seed=s
        ),
        _mixed_lineup,
        config,
        warmup_fraction,
        with_oracle=True,
    )


def seeded_unseen_cell(
    workload: str,
    config: str,
    n_requests: int,
    seeds: Sequence[int],
    warmup_fraction: float = DEFAULT_WARMUP,
) -> Dict[str, Dict[str, SeededResult]]:
    """One unseen-workload cell with confidence bands over seeds."""
    return _banded_cell(
        seeds,
        partial(_resolve_trace, workload, n_requests),
        _unseen_lineup,
        config,
        warmup_fraction,
        with_oracle=True,
    )
