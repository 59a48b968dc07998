"""Observability must never change results.

Two contracts:

* **A/B bit-identity** — a fully observed run (a ``stats`` dict and an
  installed span tracer) produces results, final weights, replay
  contents, and RNG streams identical (float equality) to an unobserved
  run, across policy families and both engine backends.
* **Counter equality across backends** — observation never chooses
  the engine.  A serially stepped lane (``off``) agrees with the
  compiled kernel's on what it can know without looking inside
  ``policy.place`` — ``ticks`` and ``train_events`` — and reports zero
  for the rest (``kernel_barriers`` prices the kernel's Python
  boundary, which it never crosses).  The kernel counts a forward
  wherever it ran: a C51 lane's memo misses run inside it and cross
  nothing, a DQN lane's cross once each.
"""

import pytest

from repro.baselines.cde import CDEPolicy
from repro.core.agent import SibylAgent
from repro.core.hyperparams import SIBYL_DEFAULT
from repro.obs.tracer import install_tracer, set_tracer
from repro.sim.lanes import LaneSpec, run_lanes
from repro.traces.workloads import make_trace

from test_soa import _assert_agents_identical, requires_cext

#: Frequent training events on short streams (mirrors serve's FAST_HP).
_HP = SIBYL_DEFAULT.replace(
    train_interval=20, batch_size=8, buffer_capacity=64,
    initial_random_requests=10,
)

N = 400

BACKENDS = [
    pytest.param("off", id="off"),
    pytest.param("cext", id="cext", marks=requires_cext),
]


def _lineup(seed=0):
    """RL (both heads) + a heuristic: the families the contract names."""
    return [
        SibylAgent(seed=seed, hyperparams=_HP),
        SibylAgent(head="dqn", seed=seed, hyperparams=_HP),
        CDEPolicy(),
    ]


def _run(backend, observed, tmp_path=None):
    policies = _lineup()
    trace = make_trace("rsrch_0", n_requests=N, seed=0)
    specs = [LaneSpec(policy=p, trace=trace, config="H&M") for p in policies]
    stats = None
    if observed:
        install_tracer(str(tmp_path / f"trace-{backend}.json"), capacity=4096)
        stats = {}
        results = run_lanes(specs, stats=stats, backend=backend)
        set_tracer(None)
    else:
        results = run_lanes(specs, backend=backend)
    return results, policies, stats


class TestABBitIdentity:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_observed_run_bit_identical(self, backend, tmp_path):
        plain, plain_policies, _ = _run(backend, observed=False)
        observed, obs_policies, stats = _run(
            backend, observed=True, tmp_path=tmp_path
        )
        assert plain == observed
        assert stats["ticks"] > 0
        for a, b in zip(plain_policies, obs_policies):
            if isinstance(a, SibylAgent):
                _assert_agents_identical(a, b)


class TestCounterEqualityAcrossBackends:
    def _stats(self, backend, head="c51"):
        stats = {}
        run_lanes(
            [LaneSpec(
                policy=SibylAgent(seed=0, hyperparams=_HP, head=head),
                trace=make_trace("rsrch_0", n_requests=N, seed=0),
                config="H&M",
            )],
            stats=stats,
            backend=backend,
        )
        return stats

    @pytest.mark.parametrize("backend", BACKENDS[1:])
    def test_stepped_lane_counters(self, backend):
        stepped = self._stats("off")
        kernel = self._stats(backend)
        assert stepped.keys() == kernel.keys()
        for name in ("ticks", "train_events"):
            assert stepped[name] == kernel[name]
        assert all(
            count == 0 for name, count in stepped.items()
            if name not in ("ticks", "train_events")
        )
        # Every train gate crosses the kernel's Python boundary exactly
        # once; the uncached inferences run inside the kernel.
        assert kernel["kernel_barriers"] == kernel["train_events"]
        assert kernel["fused_rows"] == kernel["fused_forwards"] > 0
        assert kernel["ticks"] == N
        assert kernel["train_events"] > 0

    @pytest.mark.parametrize("backend", BACKENDS[1:])
    def test_python_forwards_cross_the_boundary(self, backend):
        """The DQN head's forward runs in Python: every uncached
        inference and every train gate crosses exactly once."""
        kernel = self._stats(backend, head="dqn")
        assert kernel["kernel_barriers"] == (
            kernel["fused_forwards"] + kernel["train_events"]
        )
        assert kernel["fused_rows"] == kernel["fused_forwards"] > 0
        assert kernel["train_events"] > 0

    def test_heuristic_only_lanes_report_zero_forwards(self):
        stats = {}
        run_lanes(
            [LaneSpec(
                policy=CDEPolicy(),
                trace=make_trace("rsrch_0", n_requests=N, seed=0),
                config="H&M",
            )],
            stats=stats,
            backend="off",
        )
        assert stats["fused_forwards"] == 0
        assert stats["fused_rows"] == 0
        assert stats["kernel_barriers"] == 0
