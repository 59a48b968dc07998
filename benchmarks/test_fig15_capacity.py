"""Fig. 15: sensitivity to available fast-storage capacity.

Every policy on ``rsrch_0`` at fast capacities from 1% to 100% of the
working set.  Claims: the ``fig15*`` rows of ``claims.py``, which take
the geomean over capacities.
"""

from functools import lru_cache

from claims import check
from common import N_REQUESTS, N_SEEDS, STORE, emit

from repro.sim.experiment import capacity_sweep
from repro.sim.report import format_table

FRACTIONS = (0.01, 0.02, 0.04, 0.10, 0.20, 0.40, 0.80, 1.0)


@lru_cache(maxsize=None)
def sweep(config):
    return capacity_sweep(
        "rsrch_0", FRACTIONS, config=config, n_requests=N_REQUESTS,
        n_seeds=N_SEEDS, store=STORE,
    )


def run(benchmark, name, config, panel):
    results = benchmark.pedantic(lambda: sweep(config), rounds=1, iterations=1)
    rows = [
        {
            "capacity": f"{100 * frac:g}%",
            **{p: m["latency"] for p, m in by_policy.items() if p != "Fast-Only"},
        }
        for frac, by_policy in results.items()
    ]
    title = f"Fig 15({panel}): normalized latency vs fast capacity, {config}"
    emit(name, format_table(rows, title=title), results)
    check(name)


def test_fig15a_capacity_hm(benchmark):
    run(benchmark, "fig15a_capacity_hm", "H&M", "a")


def test_fig15b_capacity_hl(benchmark):
    run(benchmark, "fig15b_capacity_hl", "H&L", "b")
