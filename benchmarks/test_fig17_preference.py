"""Fig. 17: Sibyl's preference for the fast storage device (§9).

Sibyl's fast-placement fraction per workload under H&M and H&L, from
the Fig. 9 campaigns.  Claim: the ``fig17`` row of ``claims.py``.
"""

from claims import check
from common import comparison, full_workload_list, render

CONFIGS = ("H&M", "H&L")


def build_preferences():
    runs = {config: comparison(full_workload_list(), config) for config in CONFIGS}
    return {
        workload: {
            config: {"fast_preference": runs[config][workload]["Sibyl"]["fast_preference"]}
            for config in CONFIGS
        }
        for workload in full_workload_list()
    }


def test_fig17_fast_preference(benchmark):
    grid = benchmark.pedantic(build_preferences, rounds=1, iterations=1)
    render(
        "fig17_preference", grid, "fast_preference",
        "Fig 17: Sibyl's fast-device preference",
    )
    check("fig17_preference")
