"""Fig. 10: request throughput (IOPS), all policies, H&M and H&L.

Same campaign as Fig. 9, projected onto the throughput metric
(normalised to Fast-Only).  Claims: the ``fig10*`` rows of
``claims.py``.
"""

from claims import check
from common import comparison, full_workload_list, render


def test_fig10a_throughput_hm(benchmark):
    results = benchmark.pedantic(
        lambda: comparison(full_workload_list(), "H&M"),
        rounds=1, iterations=1,
    )
    render(
        "fig10a_throughput_hm", results, "iops",
        "Fig 10(a): normalized request throughput (IOPS), H&M",
    )
    check("fig10a_throughput_hm")


def test_fig10b_throughput_hl(benchmark):
    results = benchmark.pedantic(
        lambda: comparison(full_workload_list(), "H&L"),
        rounds=1, iterations=1,
    )
    render(
        "fig10b_throughput_hl", results, "iops",
        "Fig 10(b): normalized request throughput (IOPS), H&L",
    )
    check("fig10b_throughput_hl")
