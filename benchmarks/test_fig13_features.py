"""Fig. 13: Sibyl with different state-feature subsets (H&L).

The paper's point is that the full six-feature configuration beats
every subset.  Claim: the ``fig13`` row of ``claims.py``.
"""

from claims import check
from common import N_REQUESTS, N_SEEDS, STORE, motivation_workloads, render

from repro.sim.experiment import feature_ablation

FEATURE_SETS = ("rt", "ft", "rt+ft", "rt+ft+mt", "rt+ft+pt", "all")


def test_fig13_feature_ablation(benchmark):
    results = benchmark.pedantic(
        lambda: feature_ablation(
            motivation_workloads(), FEATURE_SETS,
            config="H&L", n_requests=N_REQUESTS, n_seeds=N_SEEDS, store=STORE,
        ),
        rounds=1, iterations=1,
    )
    grid = {
        workload: {fs: {"latency": band} for fs, band in by_set.items()}
        for workload, by_set in results.items()
    }
    render(
        "fig13_features", grid, "latency",
        "Fig 13: normalized latency by feature set, H&L",
    )
    check("fig13_features")
