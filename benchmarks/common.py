"""Shared infrastructure for the figure/table benchmarks.

Several figures are different projections of the same simulation
campaign (Fig. 9 latency, Fig. 10 IOPS, Fig. 17 preference, Fig. 18
evictions), so the campaign is computed once per (workloads, config)
and cached.  Each benchmark renders its figure's rows, prints them,
and writes them under ``benchmarks/results/`` so the numbers survive
pytest's output capture.

Scale knobs: the three ``SIBYL_BENCH_*`` variables read below, plus what
the library itself honours (workers, backend, durable store) — all rows
of ``repro.knobs.TABLE``, documented in ``docs/configuration.md``.

Within every cell the policy lineup is one ``run_lanes`` call: the SoA
tick kernels (``SIBYL_BACKEND``) run every lane they model, the rest
are stepped serially — bit-identical to the serial loop either way.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path
from typing import Dict, Tuple

from repro import knobs
from repro.sim.experiment import compare_policies, tri_hybrid_comparison
from repro.sim.report import export_json, format_table, geomean
from repro.store import store_from_env
from repro.traces.workloads import MOTIVATION_WORKLOADS, workload_names

N_REQUESTS = knobs.get("SIBYL_BENCH_REQUESTS")
_MODE = knobs.get("SIBYL_BENCH_WORKLOADS")
N_SEEDS = knobs.get("SIBYL_BENCH_SEEDS")
#: kwargs adding the seed axis to a campaign (empty = point estimates).
SEED_AXIS = {"n_seeds": N_SEEDS} if N_SEEDS > 1 else {}

#: Durable campaign store (``SIBYL_STORE``), or None for undurable runs.
STORE = store_from_env()

RESULTS_DIR = Path(__file__).parent / "results"
RESULTS_DIR.mkdir(exist_ok=True)


def full_workload_list() -> Tuple[str, ...]:
    if _MODE == "quick":
        return tuple(MOTIVATION_WORKLOADS)
    return tuple(workload_names("msrc"))


def motivation_workloads() -> Tuple[str, ...]:
    return tuple(MOTIVATION_WORKLOADS)


@lru_cache(maxsize=None)
def comparison(workloads: Tuple[str, ...], config: str) -> Dict:
    """Cached full-policy comparison for a workload set + HSS config.

    The campaign fans out one worker per workload via the parallel
    experiment engine; results are bit-identical to a serial run.
    """
    return compare_policies(
        list(workloads), config=config, n_requests=N_REQUESTS, seed=0,
        store=STORE, **SEED_AXIS,
    )


@lru_cache(maxsize=None)
def tri_comparison(workloads: Tuple[str, ...], config: str) -> Dict:
    return tri_hybrid_comparison(
        list(workloads), config=config, n_requests=N_REQUESTS, seed=0,
        store=STORE, **SEED_AXIS,
    )


def metric_value(value) -> float:
    """Scalar view of a table cell: the seed-axis mean when banded.

    Figure shape assertions compare scalars; with ``SIBYL_BENCH_SEEDS``
    > 1 the cells are ``SeededResult`` bands, so assertions (and the
    geomean row) act on the means.  (The predicate matches report.py's
    band detection — ``hasattr(value, "mean")`` alone would misfire on
    numpy scalars, whose ``.mean`` is a bound method.)
    """
    if hasattr(value, "mean") and hasattr(value, "ci_lo") and hasattr(
        value, "ci_hi"
    ):
        return value.mean
    return value


def metric_table(results: Dict, metric: str) -> list:
    """Rows of {workload, policy_1: value, ...} plus a geomean row.

    Banded cells stay banded (the table renderer prints mean ±CI); the
    geomean summary row is computed over the per-cell scalar views.
    """
    policies = list(next(iter(results.values())).keys())
    rows = []
    for workload, by_policy in results.items():
        row = {"workload": workload}
        for policy in policies:
            row[policy] = by_policy[policy][metric]
        rows.append(row)
    avg = {"workload": "GEOMEAN"}
    for policy in policies:
        values = [metric_value(results[w][policy][metric]) for w in results]
        try:
            avg[policy] = geomean(values)
        except ValueError:
            avg[policy] = sum(values) / len(values)
    rows.append(avg)
    return rows


def emit(name: str, text: str) -> None:
    """Print a figure's table and persist it under benchmarks/results/."""
    banner = f"\n===== {name} =====\n{text}\n"
    print(banner)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def render(name: str, results: Dict, metric: str, title: str) -> str:
    """Render, print, and persist one figure table (ASCII + JSON).

    The JSON sibling under ``benchmarks/results/`` carries the full
    (possibly banded) grid machine-readably — per-seed values included
    — so plots and CI checks never re-parse the ASCII art.
    """
    if N_SEEDS > 1:
        title += f" — mean ±95% CI over {N_SEEDS} seeds"
    text = format_table(metric_table(results, metric), title=title)
    emit(name, text)
    export_json(results, path=RESULTS_DIR / f"{name}.json")
    return text
