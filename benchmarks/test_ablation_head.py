"""Ablation: C51 (distributional) vs plain DQN head (§6.2.1).

The paper chooses the Categorical DQN because the learned return
*distribution* "helps Sibyl capture more information from the
environment", but plots no comparison.  This bench runs both heads
under identical budgets.  Claim: the ``ablation-head`` row of
``claims.py``.
"""

from functools import lru_cache

from claims import check
from common import N_REQUESTS, SEEDS, motivation_workloads, render

from repro.core.agent import SibylAgent
from repro.sim.campaign import aggregate_seeds, run_seeded_normalized
from repro.traces.workloads import make_trace


def agent(head, seed):
    sibyl = SibylAgent(head=head, seed=seed)
    sibyl.name = f"Sibyl[{head.upper()}]"
    return sibyl


@lru_cache(maxsize=None)
def head_comparison(config):
    return {
        workload: aggregate_seeds(
            run_seeded_normalized(
                SEEDS,
                [make_trace(workload, n_requests=N_REQUESTS, seed=s) for s in SEEDS],
                [[agent("c51", s), agent("dqn", s)] for s in SEEDS],
                config=config,
                warmup_fraction=0.3,
            ),
            seeds=SEEDS,
        )
        for workload in motivation_workloads()
    }


def test_ablation_c51_vs_dqn(benchmark):
    results = benchmark.pedantic(
        lambda: head_comparison("H&M"), rounds=1, iterations=1
    )
    render(
        "ablation_head", results, "latency",
        "Ablation: C51 vs expected-value DQN, H&M (normalized latency)",
    )
    check("ablation_head")
