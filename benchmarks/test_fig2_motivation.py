"""Fig. 2: motivation — baseline policies vs Oracle on six workloads.

The paper's motivation: every baseline trails the Oracle, in both the
performance-oriented (H&M) and cost-oriented (H&L) configurations.
Claims: the ``fig2*`` rows of ``claims.py``.
"""

from claims import check
from common import comparison, motivation_workloads, render


def test_fig2a_motivation_hm(benchmark):
    results = benchmark.pedantic(
        lambda: comparison(motivation_workloads(), "H&M"),
        rounds=1, iterations=1,
    )
    render(
        "fig2a_motivation_hm", results, "latency",
        "Fig 2(a): normalized avg request latency, H&M (vs Fast-Only)",
    )
    check("fig2a_motivation_hm")


def test_fig2b_motivation_hl(benchmark):
    results = benchmark.pedantic(
        lambda: comparison(motivation_workloads(), "H&L"),
        rounds=1, iterations=1,
    )
    render(
        "fig2b_motivation_hl", results, "latency",
        "Fig 2(b): normalized avg request latency, H&L (vs Fast-Only)",
    )
    check("fig2b_motivation_hl")
