"""Fig. 18: evictions from fast storage as a fraction of all requests.

Same campaign as Fig. 9, projected onto the eviction fraction (an
arithmetic-mean summary: fractions can be zero).  Claims: the
``fig18*`` rows of ``claims.py``.
"""

from claims import check
from common import comparison, full_workload_list, render


def test_fig18a_evictions_hm(benchmark):
    results = benchmark.pedantic(
        lambda: comparison(full_workload_list(), "H&M"),
        rounds=1, iterations=1,
    )
    render(
        "fig18a_evictions_hm", results, "eviction_fraction",
        "Fig 18(a): eviction fraction, H&M",
    )
    check("fig18a_evictions_hm")


def test_fig18b_evictions_hl(benchmark):
    results = benchmark.pedantic(
        lambda: comparison(full_workload_list(), "H&L"),
        rounds=1, iterations=1,
    )
    render(
        "fig18b_evictions_hl", results, "eviction_fraction",
        "Fig 18(b): eviction fraction, H&L",
    )
    check("fig18b_evictions_hl")
