"""Fig. 12: mixed workloads (Table 5), Sibyl_Def vs Sibyl_Opt.

Independent workloads run concurrently with random start offsets,
stress-testing online adaptation; Sibyl_Opt is Sibyl with a lower
learning rate.  Claims: the ``fig12*`` rows of ``claims.py``.
"""

from functools import lru_cache

from claims import check
from common import N_REQUESTS, N_SEEDS, STORE, render

from repro.sim.experiment import mixed_workload_comparison
from repro.traces.mixer import MIXES

ALL_MIXES = tuple(sorted(MIXES))


@lru_cache(maxsize=None)
def mixed(config):
    return mixed_workload_comparison(
        list(ALL_MIXES),
        config=config,
        n_requests_per_component=max(2000, N_REQUESTS // 2),
        n_seeds=N_SEEDS,
        store=STORE,
    )


def test_fig12a_mixed_hm(benchmark):
    results = benchmark.pedantic(lambda: mixed("H&M"), rounds=1, iterations=1)
    render(
        "fig12a_mixed_hm", results, "latency",
        "Fig 12(a): mixed workloads, H&M (normalized latency)",
    )
    check("fig12a_mixed_hm")


def test_fig12b_mixed_hl(benchmark):
    results = benchmark.pedantic(lambda: mixed("H&L"), rounds=1, iterations=1)
    render(
        "fig12b_mixed_hl", results, "latency",
        "Fig 12(b): mixed workloads, H&L (normalized latency)",
    )
    check("fig12b_mixed_hl")
