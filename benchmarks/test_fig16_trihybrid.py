"""Fig. 16: tri-hybrid storage systems (H&M&L and H&M&L_SSD).

Sibyl extended to three devices (one extra action, one extra capacity
feature) against the statically-thresholded hot/cold/frozen heuristic.
Claims: the ``fig16*`` rows of ``claims.py``.
"""

from claims import check
from common import full_workload_list, render, tri_comparison


def test_fig16a_trihybrid_hml(benchmark):
    results = benchmark.pedantic(
        lambda: tri_comparison(full_workload_list(), "H&M&L"),
        rounds=1, iterations=1,
    )
    render(
        "fig16a_trihybrid_hml", results, "latency",
        "Fig 16(a): tri-hybrid H&M&L (normalized latency)",
    )
    check("fig16a_trihybrid_hml")


def test_fig16b_trihybrid_hml_ssd(benchmark):
    results = benchmark.pedantic(
        lambda: tri_comparison(full_workload_list(), "H&M&L_SSD"),
        rounds=1, iterations=1,
    )
    render(
        "fig16b_trihybrid_hml_ssd", results, "latency",
        "Fig 16(b): tri-hybrid H&M&L_SSD (normalized latency)",
    )
    check("fig16b_trihybrid_hml_ssd")
