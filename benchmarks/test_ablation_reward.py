"""Ablation: the Eq. 1 latency reward vs the rejected rewards of §11.

The paper reports trying (and rejecting) two alternative rewards:

* **hit rate** — "tries to aggressively place data in the fast storage
  device, which leads to unnecessary evictions";
* **high negative reward for eviction** — "places more pages in the
  slow device to avoid evictions ... not able to effectively utilize
  the fast storage".

This bench reproduces that comparison, including the behavioural
signature (fast preference), not just the latency.  Claims: the
``ablation-reward*`` rows of ``claims.py``.
"""

from functools import lru_cache

from claims import check
from common import N_REQUESTS, SEEDS, emit, metric_table, motivation_workloads

from repro.core.agent import SibylAgent
from repro.sim.campaign import aggregate_seeds, run_seeded_normalized
from repro.sim.report import format_table
from repro.traces.workloads import make_trace

REWARDS = ("latency", "hit_rate", "eviction_penalty")


def agents(seed):
    out = []
    for reward in REWARDS:
        agent = SibylAgent(reward=reward, seed=seed)
        agent.name = f"Sibyl[{reward}]"
        out.append(agent)
    return out


@lru_cache(maxsize=None)
def reward_comparison(config):
    return {
        workload: aggregate_seeds(
            run_seeded_normalized(
                SEEDS,
                [make_trace(workload, n_requests=N_REQUESTS, seed=s) for s in SEEDS],
                [agents(s) for s in SEEDS],
                config=config,
                warmup_fraction=0.3,
            ),
            seeds=SEEDS,
        )
        for workload in motivation_workloads()
    }


def test_ablation_reward_structures(benchmark):
    results = benchmark.pedantic(
        lambda: reward_comparison("H&M"), rounds=1, iterations=1
    )
    emit(
        "ablation_reward",
        "\n\n".join(
            format_table(
                metric_table(results, metric),
                title=f"Ablation: reward structures (Sec 11), H&M — {metric}",
            )
            for metric in ("latency", "fast_preference")
        ),
        results,
    )
    check("ablation_reward")
