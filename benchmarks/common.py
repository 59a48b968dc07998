"""Shared infrastructure for the figure/table benchmarks.

Several figures are different projections of the same simulation
campaign (Fig. 9 latency, Fig. 10 IOPS, Fig. 17 preference, Fig. 18
evictions), so the campaign is computed once per (workloads, config)
and cached.  Each benchmark renders its figure's rows, prints them,
and writes them under ``benchmarks/results/`` so the numbers survive
pytest's output capture; a figure with claims also writes its grid as
JSON, which ``claims.py`` reads.

Scale knobs: the three ``SIBYL_BENCH_*`` variables read below, plus what
the library itself honours (workers, backend, durable store) — all rows
of ``repro.knobs.TABLE``, documented in ``docs/configuration.md``.
Every campaign runs ``SIBYL_BENCH_SEEDS`` seeds, so every cell is a
band over seeds; one seed is a one-value band.

Within every cell the policy lineup is one ``run_lanes`` call: the SoA
tick kernels (``SIBYL_BACKEND``) run every lane they model, the rest
are stepped serially — bit-identical to the serial loop either way.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path
from statistics import fmean
from typing import Dict, Optional, Tuple

from repro import knobs
from repro.sim.campaign import SeededResult, resolve_seeds
from repro.sim.experiment import compare_policies, tri_hybrid_comparison
from repro.sim.report import export_json, format_table, geomean
from repro.store import store_from_env
from repro.traces.workloads import MOTIVATION_WORKLOADS, workload_names

N_REQUESTS = knobs.get("SIBYL_BENCH_REQUESTS")
_MODE = knobs.get("SIBYL_BENCH_WORKLOADS")
N_SEEDS = knobs.get("SIBYL_BENCH_SEEDS")
#: The seed axis of every campaign, for the benches that build their own.
SEEDS = resolve_seeds(n_seeds=N_SEEDS)

#: Durable campaign store (``SIBYL_STORE``), or None for undurable runs.
STORE = store_from_env()

RESULTS_DIR = Path(__file__).parent / "results"
RESULTS_DIR.mkdir(exist_ok=True)

#: Each metric's summary row: the geometric mean of normalised latency
#: and IOPS, the arithmetic mean of fractions (which can be zero).
SUMMARY = {
    "latency": "GEOMEAN",
    "iops": "GEOMEAN",
    "eviction_fraction": "MEAN",
    "fast_preference": "MEAN",
}


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
        n_seeds=N_SEEDS, store=STORE,
    )


@lru_cache(maxsize=None)
def tri_comparison(workloads: Tuple[str, ...], config: str) -> Dict:
    return tri_hybrid_comparison(
        list(workloads), config=config, n_requests=N_REQUESTS, seed=0,
        n_seeds=N_SEEDS, store=STORE,
    )


def metric_table(results: Dict, metric: str) -> list:
    """Rows of {workload, column: band, ...} plus the metric's summary
    row, whose band is the summary taken seed by seed."""
    rows = [
        {"workload": workload, **{key: cell[metric] for key, cell in by_key.items()}}
        for workload, by_key in results.items()
    ]
    label = SUMMARY[metric]
    summarise = geomean if label == "GEOMEAN" else fmean
    summary = {"workload": label}
    for key in list(rows[0])[1:]:
        bands = [row[key] for row in rows]
        summary[key] = SeededResult.from_values(
            [summarise(seed) for seed in zip(*(band.values for band in bands))],
            seeds=bands[0].seeds,
        )
    return rows + [summary]


def emit(name: str, text: str, grid: Optional[Dict] = None) -> None:
    """Print a figure's table and persist it under benchmarks/results/.

    A ``grid`` is written beside it as ``<name>.json``, and the scale it
    ran at into ``scale.json``, for ``claims.py``.
    """
    if grid is not None:
        text += f"\n(each cell: mean ±95% CI over {N_SEEDS} seed(s))"
        export_json(grid, path=RESULTS_DIR / f"{name}.json")
        scale_path = RESULTS_DIR / "scale.json"
        scales = json.loads(scale_path.read_text()) if scale_path.exists() else {}
        scales[name] = {"requests": N_REQUESTS, "workloads": _MODE}
        scale_path.write_text(json.dumps(dict(sorted(scales.items())), indent=2) + "\n")
    print(f"\n===== {name} =====\n{text}\n")
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def render(name: str, results: Dict, metric: str, title: str) -> None:
    """Render, print, and persist one figure's ``metric`` table and grid."""
    emit(name, format_table(metric_table(results, metric), title=title), results)
