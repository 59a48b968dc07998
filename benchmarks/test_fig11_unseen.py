"""Fig. 11: performance on unseen (FileBench) workloads.

No policy — including Sibyl — is tuned on these workloads, so the
supervised-learning baselines (Archivist, RNN-HSS) chase stale labels.
Claims: the ``fig11*`` rows of ``claims.py``.
"""

from functools import lru_cache

from claims import check
from common import N_REQUESTS, N_SEEDS, STORE, render

from repro.sim.experiment import unseen_workload_comparison
from repro.traces.workloads import workload_names

UNSEEN = tuple(workload_names("filebench"))


@lru_cache(maxsize=None)
def unseen(config):
    return unseen_workload_comparison(
        list(UNSEEN), config=config, n_requests=N_REQUESTS,
        n_seeds=N_SEEDS, store=STORE,
    )


def test_fig11a_unseen_hm(benchmark):
    results = benchmark.pedantic(lambda: unseen("H&M"), rounds=1, iterations=1)
    render(
        "fig11a_unseen_hm", results, "latency",
        "Fig 11(a): unseen workloads, H&M (normalized latency)",
    )
    check("fig11a_unseen_hm")


def test_fig11b_unseen_hl(benchmark):
    results = benchmark.pedantic(lambda: unseen("H&L"), rounds=1, iterations=1)
    render(
        "fig11b_unseen_hl", results, "latency",
        "Fig 11(b): unseen workloads, H&L (normalized latency)",
    )
    check("fig11b_unseen_hl")
