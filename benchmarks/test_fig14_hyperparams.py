"""Fig. 14: sensitivity to discount factor, learning rate, exploration.

The swept metric is normalised *throughput* as in the paper (higher is
better); we report normalised latency too (lower is better).  Claims:
the ``fig14*`` rows of ``claims.py``.
"""

from functools import lru_cache

from claims import check
from common import N_REQUESTS, N_SEEDS, STORE, emit

from repro.sim.experiment import hyperparameter_sweep
from repro.sim.report import format_table

GAMMAS = (0.0, 0.1, 0.5, 0.9, 0.95, 1.0)
LRS = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1)
EPSILONS = (1e-5, 1e-3, 1e-2, 1e-1, 1.0)


@lru_cache(maxsize=None)
def sweep(parameter, values):
    return hyperparameter_sweep(
        parameter, values, workload="rsrch_0", config="H&M",
        n_requests=N_REQUESTS, n_seeds=N_SEEDS, store=STORE,
    )


def run(benchmark, name, parameter, values, title):
    series = benchmark.pedantic(
        lambda: sweep(parameter, values), rounds=1, iterations=1
    )
    rows = [
        {"value": str(v), "norm_iops": m["iops"], "norm_latency": m["latency"]}
        for v, m in series.items()
    ]
    emit(name, format_table(rows, title=title), series)
    check(name)


def test_fig14a_discount_factor(benchmark):
    run(benchmark, "fig14a_discount", "discount", GAMMAS,
        "Fig 14(a): sensitivity to discount factor")


def test_fig14b_learning_rate(benchmark):
    run(benchmark, "fig14b_learning_rate", "learning_rate", LRS,
        "Fig 14(b): sensitivity to learning rate")


def test_fig14c_exploration_rate(benchmark):
    run(benchmark, "fig14c_exploration", "exploration_rate", EPSILONS,
        "Fig 14(c): sensitivity to exploration rate")
