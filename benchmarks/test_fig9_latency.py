"""Fig. 9: average request latency, all policies, H&M and H&L.

The headline result: Sibyl against every baseline.  Claims: the
``fig9*`` rows of ``claims.py``.
"""

from claims import check
from common import comparison, full_workload_list, render


def test_fig9a_latency_hm(benchmark):
    results = benchmark.pedantic(
        lambda: comparison(full_workload_list(), "H&M"),
        rounds=1, iterations=1,
    )
    render(
        "fig9a_latency_hm", results, "latency",
        "Fig 9(a): normalized avg request latency, H&M (vs Fast-Only)",
    )
    check("fig9a_latency_hm")


def test_fig9b_latency_hl(benchmark):
    results = benchmark.pedantic(
        lambda: comparison(full_workload_list(), "H&L"),
        rounds=1, iterations=1,
    )
    render(
        "fig9b_latency_hl", results, "latency",
        "Fig 9(b): normalized avg request latency, H&L (vs Fast-Only)",
    )
    check("fig9b_latency_hl")
