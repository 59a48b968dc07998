"""Extension (§11): endurance-aware multi-objective reward.

The paper sketches optimising for endurance by adding "the number of
writes to an endurance-critical device in the reward function" and
leaves it to future work.  This bench sweeps the wear coefficient and
reports fast-NVM write traffic beside the latency it costs.  Claim: the
``ext-endurance`` row of ``claims.py``.
"""

from claims import check
from common import N_REQUESTS, SEEDS, emit

from repro.core.agent import SibylAgent
from repro.core.reward import EnduranceAwareReward
from repro.sim.campaign import aggregate_seeds
from repro.sim.report import format_table
from repro.sim.runner import build_hss, run_policy
from repro.traces.workloads import make_trace

WEAR_COEFFICIENTS = (0.0, 0.05, 0.2, 1.0)


def point(coef, seed):
    trace = make_trace("rsrch_0", n_requests=N_REQUESTS, seed=seed)
    hss = build_hss("H&M", trace)
    reward = (
        "latency" if coef == 0.0
        else EnduranceAwareReward(wear_coefficient=coef)
    )
    result = run_policy(
        SibylAgent(reward=reward, seed=seed), trace, hss=hss, warmup_fraction=0.3
    )
    return {
        "avg_latency_us": result.avg_latency_s * 1e6,
        "fast_pages_written": hss.devices[0].stats.pages_written,
        "fast_preference": result.profile.fast_preference,
    }


def sweep():
    return aggregate_seeds(
        [{coef: point(coef, s) for coef in WEAR_COEFFICIENTS} for s in SEEDS],
        seeds=SEEDS,
    )


def test_ext_endurance_tradeoff(benchmark):
    grid = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        "ext_endurance",
        format_table(
            [{"wear_coef": coef, **metrics} for coef, metrics in grid.items()],
            title="Extension (Sec 11): endurance/latency trade-off, "
                  "rsrch_0 on H&M",
            precision=2,
        ),
        grid,
    )
    check("ext_endurance")
