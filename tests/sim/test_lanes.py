"""Tests for ``repro.sim.lanes.run_lanes``.

The contract is absolute: a lane's result is **bit-identical** to a
serial ``run_policy`` of the same (policy, trace, config, seed) —
equality below is float equality, never approx — whichever backend
``SIBYL_BACKEND`` selects (CI runs this file under ``cext`` and on a
box with no compiler, where ``auto`` steps every lane serially;
``tests/sim/test_agent_lanes.py`` searches serial, ``off`` and
``cext``).
"""

import numpy as np
import pytest

from repro.baselines.cde import CDEPolicy
from repro.baselines.extremes import FastOnlyPolicy, SlowOnlyPolicy
from repro.baselines.hps import HPSPolicy
from repro.baselines.oracle import OraclePolicy
from repro.core.agent import SibylAgent
from repro.core.hyperparams import SIBYL_DEFAULT
from repro.rl.c51 import C51Config, C51LaneStack, C51Network
from repro.rl.dqn import DQNConfig, DQNLaneStack, DQNNetwork
from repro.sim.lanes import LaneSpec, run_lanes
from repro.sim.runner import run_policy
from repro.traces.workloads import make_trace

from test_soa import _assert_agents_identical


def _spec_policies(seed=0):
    """One of every policy family: RL, oracle, heuristics, extremes."""
    return [
        SibylAgent(seed=seed),
        SibylAgent(head="dqn", seed=seed),
        OraclePolicy(),
        CDEPolicy(),
        HPSPolicy(),
        FastOnlyPolicy(),
        SlowOnlyPolicy(),
    ]


class TestLaneBitIdentity:
    def test_all_policy_families_match_serial(self):
        trace = make_trace("rsrch_0", n_requests=1200, seed=0)
        serial = [
            run_policy(policy, trace, config="H&M")
            for policy in _spec_policies()
        ]
        laned = run_lanes(
            [LaneSpec(policy=policy, trace=trace) for policy in _spec_policies()]
        )
        for s, l in zip(serial, laned):
            assert s == l  # frozen dataclass: full bitwise field equality

    @pytest.mark.parametrize("n_lanes", [1, 2, 7])
    def test_sibyl_lane_counts(self, n_lanes):
        """Identity must hold at every lane count."""
        traces = [
            make_trace("rsrch_0", n_requests=900, seed=i)
            for i in range(n_lanes)
        ]
        serial = [
            run_policy(SibylAgent(seed=i), traces[i], config="H&M")
            for i in range(n_lanes)
        ]
        laned = run_lanes(
            [
                LaneSpec(policy=SibylAgent(seed=i), trace=traces[i])
                for i in range(n_lanes)
            ]
        )
        assert serial == laned

    def test_mixed_traces_and_lengths(self):
        """Lanes of different lengths: early-finishing lanes must not
        perturb the survivors."""
        short = make_trace("usr_0", n_requests=400, seed=1)
        long = make_trace("rsrch_0", n_requests=1500, seed=2)
        serial = [
            run_policy(SibylAgent(seed=1), short),
            run_policy(SibylAgent(seed=2), long),
            run_policy(CDEPolicy(), long),
        ]
        laned = run_lanes(
            [
                LaneSpec(policy=SibylAgent(seed=1), trace=short),
                LaneSpec(policy=SibylAgent(seed=2), trace=long),
                LaneSpec(policy=CDEPolicy(), trace=long),
            ]
        )
        assert serial == laned

    def test_warmup_and_capacity_passthrough(self):
        trace = make_trace("usr_0", n_requests=800, seed=3)
        kwargs = dict(
            config="H&M", capacity_fractions=(0.2,), warmup_fraction=0.3
        )
        serial = run_policy(SibylAgent(seed=3), trace, **kwargs)
        (laned,) = run_lanes(
            [LaneSpec(policy=SibylAgent(seed=3), trace=trace, **kwargs)]
        )
        assert serial == laned

    def test_tri_hss_three_actions(self):
        """A 3-action head on a tri-HSS (stepped, never kernel-run)."""
        trace = make_trace("usr_0", n_requests=700, seed=4)
        serial = run_policy(SibylAgent(seed=4), trace, config="H&M&L")
        (laned,) = run_lanes(
            [LaneSpec(policy=SibylAgent(seed=4), trace=trace, config="H&M&L")]
        )
        assert serial == laned

    def test_heterogeneous_heads_group_separately(self):
        """c51 and dqn lanes in one call."""
        trace = make_trace("rsrch_0", n_requests=800, seed=5)
        serial = [
            run_policy(SibylAgent(seed=5), trace),
            run_policy(SibylAgent(head="dqn", seed=5), trace),
        ]
        laned = run_lanes(
            [
                LaneSpec(policy=SibylAgent(seed=5), trace=trace),
                LaneSpec(policy=SibylAgent(head="dqn", seed=5), trace=trace),
            ]
        )
        assert serial == laned


class TestLaneAgentState:
    """A lane leaves its agent — losses, both networks, optimizer
    moments, replay, memo, RNG — exactly as the serial run does, under
    whichever backend ``SIBYL_BACKEND`` selects."""

    @pytest.mark.parametrize("n_lanes", [2, 7])
    def test_agents_end_as_serial(self, n_lanes):
        traces = [
            make_trace("rsrch_0", n_requests=1400, seed=i)
            for i in range(n_lanes)
        ]
        serial_agents = [SibylAgent(seed=i) for i in range(n_lanes)]
        serial = [
            run_policy(serial_agents[i], traces[i]) for i in range(n_lanes)
        ]
        laned_agents = [SibylAgent(seed=i) for i in range(n_lanes)]
        laned = run_lanes(
            [
                LaneSpec(policy=laned_agents[i], trace=traces[i])
                for i in range(n_lanes)
            ]
        )
        assert serial == laned
        assert serial_agents[0].train_events > 0, "runs never trained"
        for s_agent, l_agent in zip(serial_agents, laned_agents):
            _assert_agents_identical(s_agent, l_agent)
            assert l_agent._train_job is None

    def test_mixed_intervals_and_mixed_lanes(self):
        """Different training intervals and batch shapes, a short lane,
        a heuristic and a kernel-ineligible feature ablation in one
        call: every lane is its own serial run."""
        hyperparams = [
            SIBYL_DEFAULT,
            SIBYL_DEFAULT.replace(train_interval=300),
            SIBYL_DEFAULT.replace(batch_size=64),
            SIBYL_DEFAULT.replace(train_interval=375),
        ]
        long = make_trace("rsrch_0", n_requests=1600, seed=0)
        short = make_trace("usr_0", n_requests=700, seed=3)

        def lineup():
            policies = [
                SibylAgent(hyperparams=hp, seed=i)
                for i, hp in enumerate(hyperparams)
            ]
            policies.append(SibylAgent(seed=9))
            policies.append(SibylAgent(feature_set="rt", seed=4))
            policies.append(CDEPolicy())
            traces = [long, long, long, long, short, long, long]
            return policies, traces

        serial_policies, serial_traces = lineup()
        serial = [
            run_policy(policy, trace)
            for policy, trace in zip(serial_policies, serial_traces)
        ]
        laned_policies, laned_traces = lineup()
        laned = run_lanes(
            [
                LaneSpec(policy=policy, trace=trace)
                for policy, trace in zip(laned_policies, laned_traces)
            ]
        )
        assert serial == laned
        for s_agent, l_agent in zip(serial_policies[:6], laned_policies[:6]):
            _assert_agents_identical(s_agent, l_agent)


class _CheckpointRestoringSibyl(SibylAgent):
    """Loads a checkpoint mid-run (an online deployment restoring a
    pre-trained policy into a live lane)."""

    def __init__(self, checkpoint_path, restore_at, **kwargs):
        super().__init__(**kwargs)
        self._checkpoint_path = checkpoint_path
        self._restore_at = restore_at

    def feedback(self, request, action, result):
        super().feedback(request, action, result)
        if self._requests_seen == self._restore_at:
            self.load_checkpoint(self._checkpoint_path)


class TestCheckpointResync:
    """A checkpoint restore rewrites an agent's inference weights
    without touching ``train_events``; a lane running such a subclass
    (never kernel-eligible: the gate is an exact type check) must still
    equal its serial run, and the agent must bump ``weights_version``
    (what the daemon's fused stacks watch) and drop its greedy-action
    memo."""

    @pytest.fixture()
    def donor_checkpoint(self, tmp_path):
        """Weights of a trained, differently-seeded agent."""
        donor = SibylAgent(seed=77)
        run_policy(donor, make_trace("rsrch_0", n_requests=1500, seed=5))
        assert donor.train_events > 0
        path = tmp_path / "donor.npz"
        donor.save_checkpoint(path)
        return path

    def test_restore_before_first_training_matches_serial(
        self, donor_checkpoint
    ):
        """The restore happens while train_events is still 0, next to
        a plain agent lane the kernels do take."""
        trace = make_trace("rsrch_0", n_requests=1200, seed=0)

        def lineup():
            return [
                _CheckpointRestoringSibyl(donor_checkpoint, 100, seed=1),
                SibylAgent(seed=2),
            ]

        serial = [run_policy(policy, trace) for policy in lineup()]
        laned_policies = lineup()
        laned = run_lanes(
            [LaneSpec(policy=policy, trace=trace) for policy in laned_policies]
        )
        assert serial == laned

    def test_load_checkpoint_bumps_weights_version_and_clears_memo(
        self, donor_checkpoint
    ):
        agent = SibylAgent(seed=1)
        run_policy(agent, make_trace("rsrch_0", n_requests=600, seed=0))
        version = agent.weights_version
        assert agent._action_cache, "memo never warmed; test proves nothing"
        agent.load_checkpoint(donor_checkpoint)
        assert agent.weights_version > version
        assert not agent._action_cache and not agent._cache_obs


class TestPerLaneRNG:
    """Exploration randomness must be drawn from each lane's own seeded
    generator — never from a generator shared across lanes."""

    def test_same_seed_lanes_identical(self):
        """Two lanes with identical (seed, trace) must produce identical
        results; a shared RNG would interleave their draws and split the
        stream between them."""
        trace = make_trace("rsrch_0", n_requests=1000, seed=0)
        reference = run_policy(SibylAgent(seed=7), trace)
        results = run_lanes(
            [
                LaneSpec(policy=SibylAgent(seed=7), trace=trace),
                LaneSpec(policy=SibylAgent(seed=7), trace=trace),
            ]
        )
        assert results[0] == results[1] == reference

    def test_different_seeds_diverge(self):
        trace = make_trace("rsrch_0", n_requests=1000, seed=0)
        a_policy = SibylAgent(seed=0)
        b_policy = SibylAgent(seed=12345)
        a, b = run_lanes(
            [
                LaneSpec(policy=a_policy, trace=trace),
                LaneSpec(policy=b_policy, trace=trace),
            ]
        )
        # Different exploration streams must lead to different action
        # histories (astronomically unlikely to coincide otherwise).
        assert not np.array_equal(a_policy.action_counts, b_policy.action_counts) \
            or a != b

    def test_lane_rng_state_matches_serial(self):
        """After a laned run, each agent's generator must be in exactly
        the state the serial run leaves it in."""
        trace = make_trace("usr_0", n_requests=600, seed=0)
        serial_agent = SibylAgent(seed=3)
        run_policy(serial_agent, trace)
        laned_agent = SibylAgent(seed=3)
        run_lanes([LaneSpec(policy=laned_agent, trace=trace)])
        assert serial_agent.rng.random() == laned_agent.rng.random()


class TestLaneStacks:
    """The fused stacked forward must equal the serial single-observation
    inference bit for bit."""

    def _c51_nets(self, k, n_obs=6, n_actions=2, seed=0):
        nets = []
        for i in range(k):
            rng = np.random.default_rng(seed + i)
            config = C51Config(
                n_observations=n_obs,
                n_actions=n_actions,
                v_min=-float(i + 1),
                v_max=float(10 + i),
            )
            nets.append(C51Network(config, rng=rng))
        return nets

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_c51_stack_matches_best_action(self, k):
        nets = self._c51_nets(k)
        stack = C51LaneStack(nets)
        rng = np.random.default_rng(99)
        for _ in range(20):
            obs = rng.random((k, 6))
            fused = stack.best_actions(obs)
            for lane, net in enumerate(nets):
                assert int(fused[lane]) == net.best_action(obs[lane])

    @pytest.mark.parametrize("k", [1, 4])
    def test_dqn_stack_matches_best_action(self, k):
        nets = [
            DQNNetwork(DQNConfig(), rng=np.random.default_rng(10 + i))
            for i in range(k)
        ]
        stack = DQNLaneStack(nets)
        rng = np.random.default_rng(7)
        for _ in range(20):
            obs = rng.random((k, 6))
            fused = stack.best_actions(obs)
            for lane, net in enumerate(nets):
                assert int(fused[lane]) == net.best_action(obs[lane])

    def test_refresh_picks_up_weight_copy(self):
        nets = self._c51_nets(2)
        stack = C51LaneStack(nets)
        donor = self._c51_nets(1, seed=42)[0]
        nets[1].copy_weights_from(donor)
        stack.refresh(1)
        obs = np.random.default_rng(0).random((2, 6))
        fused = stack.best_actions(obs)
        assert int(fused[1]) == nets[1].best_action(obs[1])
        assert int(fused[0]) == nets[0].best_action(obs[0])

    def test_mismatched_architectures_rejected(self):
        a = self._c51_nets(1, n_obs=6)[0]
        b = self._c51_nets(1, n_obs=7)[0]
        with pytest.raises(ValueError):
            C51LaneStack([a, b])

    def test_mismatched_heads_rejected(self):
        a = self._c51_nets(1, n_actions=2)[0]
        b = self._c51_nets(1, n_actions=3)[0]
        with pytest.raises(ValueError):
            C51LaneStack([a, b])


class TestEngineStats:
    """run_lanes(stats=) counters: pure observation, never behaviour."""

    def test_counters_populated_and_results_unchanged(self):
        trace = make_trace("rsrch_0", n_requests=900, seed=0)

        def lineup():
            return [SibylAgent(seed=0), SibylAgent(seed=1), CDEPolicy()]

        plain = run_lanes([LaneSpec(policy=p, trace=trace) for p in lineup()])
        stats = {}
        observed = run_lanes(
            [LaneSpec(policy=p, trace=trace) for p in lineup()], stats=stats
        )
        assert observed == plain  # observing must not perturb anything
        # Every lane is counted once, however it ran: by its requests
        # (kernel-run or stepped) or as a scripted lane.
        assert stats["ticks"] + 900 * stats["script_lanes"] == 3 * 900
        assert stats["train_events"] == 2 * (900 // 250)
        # No forward is ever shared between lanes.
        assert stats["fused_rows"] == stats["fused_forwards"]
        assert "fused_train_events" not in stats

    def test_stepped_lanes_count_ticks_and_train_events_only(self):
        trace = make_trace("rsrch_0", n_requests=900, seed=0)
        agents = [SibylAgent(seed=0), SibylAgent(feature_set="rt", seed=1)]
        stats = {}
        run_lanes(
            [LaneSpec(policy=p, trace=trace) for p in agents + [CDEPolicy()]],
            stats=stats,
            backend="off",
        )
        assert stats.pop("ticks") == 3 * 900
        assert stats.pop("train_events") == sum(a.train_events for a in agents) > 0
        assert set(stats.values()) == {0}

    def test_heuristic_only_lanes_never_forward(self):
        trace = make_trace("usr_0", n_requests=400, seed=0)
        stats = {}
        run_lanes(
            [LaneSpec(policy=CDEPolicy(), trace=trace)], stats=stats
        )
        assert stats["fused_forwards"] == 0
        assert stats["fused_rows"] == 0
