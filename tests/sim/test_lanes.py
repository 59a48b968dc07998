"""Tests for the multi-lane batched inference engine (repro.sim.lanes).

The engine's contract is absolute: a lane's result is **bit-identical**
to a serial ``run_policy`` of the same (policy, trace, config, seed) —
equality below is float equality, never approx.
"""

import numpy as np
import pytest

import repro.sim.lanes as lanes_module
from repro.baselines.cde import CDEPolicy
from repro.baselines.extremes import FastOnlyPolicy, SlowOnlyPolicy
from repro.baselines.hps import HPSPolicy
from repro.baselines.oracle import OraclePolicy
from repro.core.agent import SibylAgent
from repro.core.hyperparams import SIBYL_DEFAULT
from repro.knobs import resolve_choice_env
from repro.rl.c51 import C51Config, C51LaneStack, C51Network
from repro.rl.dqn import DQNConfig, DQNLaneStack, DQNNetwork
from repro.sim.lanes import (
    LaneSpec,
    resolve_lanes,
    resolve_train_align,
    run_lanes,
)
from repro.sim.runner import run_policy
from repro.traces.workloads import make_trace


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
        """Identity must hold at every batch width, including widths
        that exercise partial-tick inference batches."""
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
        """A 3-action head (different stack signature) stays identical."""
        trace = make_trace("usr_0", n_requests=700, seed=4)
        serial = run_policy(SibylAgent(seed=4), trace, config="H&M&L")
        (laned,) = run_lanes(
            [LaneSpec(policy=SibylAgent(seed=4), trace=trace, config="H&M&L")]
        )
        assert serial == laned

    def test_heterogeneous_heads_group_separately(self):
        """c51 and dqn lanes (incompatible stacks) in one engine call."""
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


def _assert_agents_identical(serial_agents, laned_agents):
    """Losses, final weights, and optimizer state must match bitwise."""
    for serial, laned in zip(serial_agents, laned_agents):
        assert serial.losses == laned.losses
        assert serial.train_events == laned.train_events
        for attr in ("training_net", "inference_net"):
            s_net = getattr(serial, attr).network
            l_net = getattr(laned, attr).network
            assert np.array_equal(s_net.flat_parameters, l_net.flat_parameters)
        s_opt = serial.training_net.optimizer
        l_opt = laned.training_net.optimizer
        assert s_opt._t == l_opt._t
        for s_state, l_state in zip(s_opt._m + s_opt._v, l_opt._m + l_opt._v):
            assert np.array_equal(s_state, l_state)


def _spy_fused_events(monkeypatch):
    """Record the lane count of every fused training event."""
    sizes = []
    original = lanes_module.fused_train_event

    def spy(agents, *args, **kwargs):
        sizes.append(len(agents))
        return original(agents, *args, **kwargs)

    monkeypatch.setattr(lanes_module, "fused_train_event", spy)
    return sizes


class TestFusedTraining:
    """Cross-lane fused training: same-tick (and window-aligned) events
    run through one stacked forward/backward, bit-identical to serial —
    weights, losses, and optimizer state included.

    Every ``run_lanes`` call here pins ``backend="off"``: these tests
    prove properties of the *lockstep* fusion engine (spied fused
    events, held lanes, stack caches), so the SoA tick engine — which
    would otherwise divert eligible Sibyl lanes wholesale — must stay
    out of the way regardless of ``SIBYL_BACKEND``."""

    @pytest.mark.parametrize("n_lanes", [2, 7])
    def test_fused_events_fire_and_match_serial(self, n_lanes, monkeypatch):
        sizes = _spy_fused_events(monkeypatch)
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
            ],
            backend="off",
        )
        assert serial == laned
        _assert_agents_identical(serial_agents, laned_agents)
        assert serial_agents[0].train_events > 0, "runs never trained"
        if n_lanes > 1:
            # Same train_interval and trace length: events align on the
            # same ticks, so fusion must actually engage (a silent
            # fallback to per-lane training would also pass identity).
            assert sizes, "no fused training event ever fired"
            assert max(sizes) > 1

    def test_dqn_lanes_fuse(self, monkeypatch):
        sizes = _spy_fused_events(monkeypatch)
        trace = make_trace("rsrch_0", n_requests=1200, seed=3)
        serial_agents = [SibylAgent(head="dqn", seed=i) for i in range(3)]
        serial = [run_policy(agent, trace) for agent in serial_agents]
        laned_agents = [SibylAgent(head="dqn", seed=i) for i in range(3)]
        laned = run_lanes(
            [LaneSpec(policy=agent, trace=trace) for agent in laned_agents],
            backend="off",
        )
        assert serial == laned
        _assert_agents_identical(serial_agents, laned_agents)
        assert sizes and max(sizes) == 3

    @pytest.mark.parametrize("window", [0, 8, 50])
    def test_misaligned_intervals_and_mixed_lanes(self, window, monkeypatch):
        """Intervals that collide on some ticks and not others, a lane
        finishing its trace mid-window, and heuristic lanes interleaved
        — identical to serial at every alignment window."""
        sizes = _spy_fused_events(monkeypatch)
        hyperparams = [
            SIBYL_DEFAULT,
            SIBYL_DEFAULT.replace(train_interval=300),
            SIBYL_DEFAULT,
            SIBYL_DEFAULT.replace(train_interval=375),
        ]
        long = make_trace("rsrch_0", n_requests=1600, seed=0)
        short = make_trace("usr_0", n_requests=700, seed=3)

        def lineup():
            policies = [
                SibylAgent(hyperparams=hp, seed=i)
                for i, hp in enumerate(hyperparams)
            ]
            policies.append(SibylAgent(seed=9))  # finishes mid-window
            policies.append(CDEPolicy())         # heuristic interleaved
            traces = [long, long, long, long, short, long]
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
            ],
            align_window=window,
            backend="off",
        )
        assert serial == laned
        _assert_agents_identical(serial_policies[:5], laned_policies[:5])
        assert sizes and max(sizes) > 1
        if window >= 50:
            # A wide window must merge the misaligned 250/300-interval
            # events that a same-tick-only flush cannot.
            assert max(sizes) > 2

    def test_different_batch_shapes_do_not_fuse(self, monkeypatch):
        """Lanes with different batch sizes share an architecture group
        but cannot share a stacked training step."""
        sizes = _spy_fused_events(monkeypatch)
        trace = make_trace("rsrch_0", n_requests=1200, seed=1)
        small = SIBYL_DEFAULT.replace(batch_size=64)

        def lineup():
            return [
                SibylAgent(seed=0),
                SibylAgent(hyperparams=small, seed=1),
            ]

        serial_agents = lineup()
        serial = [run_policy(agent, trace) for agent in serial_agents]
        laned_agents = lineup()
        laned = run_lanes(
            [LaneSpec(policy=agent, trace=trace) for agent in laned_agents],
            align_window=20,
            backend="off",
        )
        assert serial == laned
        _assert_agents_identical(serial_agents, laned_agents)
        assert all(size == 1 for size in sizes) or not sizes

    def test_training_only_stacks_skip_inference_buffers(self, monkeypatch):
        """The per-event training stacks never run fused inference, so
        they must not allocate or sync the stacked inference weights."""
        import repro.sim.lanes as lanes

        captured = {}
        original = lanes.fused_train_event

        def spy(agents, stack_cache=None, cache_key=None):
            result = original(agents, stack_cache, cache_key)
            captured.update(stack_cache or {})
            return result

        monkeypatch.setattr(lanes, "fused_train_event", spy)
        trace = make_trace("rsrch_0", n_requests=1200, seed=0)
        run_lanes(
            [LaneSpec(policy=SibylAgent(seed=i), trace=trace) for i in range(2)],
            backend="off",
        )
        assert captured, "no fused event fired; test proves nothing"
        for head, _ in captured.values():
            assert not head.stack._weights

    def test_exception_mid_run_aborts_held_lanes(self):
        """An error unwinding run_lanes must leave every agent in
        standalone mode with no training event pending, even lanes held
        in an alignment queue."""

        class Boom(Exception):
            pass

        class ExplodingSibyl(SibylAgent):
            def feedback(self, request, action, result):
                super().feedback(request, action, result)
                if self._requests_seen == 900:
                    raise Boom

        trace = make_trace("rsrch_0", n_requests=1500, seed=0)
        held = SibylAgent(
            hyperparams=SIBYL_DEFAULT.replace(train_interval=300), seed=1
        )
        survivor = SibylAgent(seed=0)
        with pytest.raises(Boom):
            run_lanes(
                [
                    LaneSpec(policy=survivor, trace=trace),
                    LaneSpec(policy=held, trace=trace),
                    LaneSpec(policy=ExplodingSibyl(seed=2), trace=trace),
                ],
                align_window=100,
                backend="off",
            )
        for agent in (survivor, held):
            assert not agent.train_pending
            assert not agent.external_training
        # The agents remain serially usable.
        result = run_policy(survivor, trace)
        assert survivor.train_events > 0 and result.n_requests == 1500

    def test_env_align_window(self, monkeypatch):
        monkeypatch.delenv("SIBYL_TRAIN_ALIGN", raising=False)
        assert resolve_train_align() == 0
        monkeypatch.setenv("SIBYL_TRAIN_ALIGN", "12")
        assert resolve_train_align() == 12
        monkeypatch.setenv("SIBYL_TRAIN_ALIGN", "sometimes")
        with pytest.raises(ValueError):
            resolve_train_align()
        monkeypatch.setenv("SIBYL_TRAIN_ALIGN", "-1")
        with pytest.raises(ValueError):
            resolve_train_align()


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
    """Regression: a checkpoint restore rewrites a lane's inference
    weights without touching ``train_events``; the lane engine must
    still re-sync that lane's slice of the stacked weights (and the
    agent must drop its greedy-action memo)."""

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
        """The nastiest case: the restore happens while train_events is
        still 0, so an event-count-based staleness check sees nothing
        to refresh and the lane keeps deciding with its pre-restore
        stacked weights."""
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
        assert stats["ticks"] > 0
        assert 0 < stats["fused_forwards"] <= stats["ticks"]
        assert stats["fused_rows"] >= stats["fused_forwards"]
        assert 1 <= stats["max_fused_rows"] <= 2

    def test_heuristic_only_lanes_never_forward(self):
        trace = make_trace("usr_0", n_requests=400, seed=0)
        stats = {}
        run_lanes(
            [LaneSpec(policy=CDEPolicy(), trace=trace)], stats=stats
        )
        assert stats["fused_forwards"] == 0
        assert stats["fused_rows"] == 0


class TestResolveLanes:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("SIBYL_LANES", raising=False)
        assert resolve_lanes(3) == 3

    def test_auto(self, monkeypatch):
        monkeypatch.setenv("SIBYL_LANES", "auto")
        assert resolve_lanes(5) == 5

    def test_integer(self, monkeypatch):
        monkeypatch.setenv("SIBYL_LANES", "6")
        assert resolve_lanes(1) == 6

    def test_zero_means_no_packing(self, monkeypatch):
        monkeypatch.setenv("SIBYL_LANES", "0")
        assert resolve_lanes(4) == 1

    def test_negative_rejected(self, monkeypatch):
        monkeypatch.setenv("SIBYL_LANES", "-4")
        with pytest.raises(ValueError):
            resolve_lanes()

    def test_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv("SIBYL_LANES", "many")
        with pytest.raises(ValueError):
            resolve_lanes()


class TestResolveChoiceEnv:
    ENV = "SIBYL_TEST_CHOICE"
    CHOICES = ("python", "cext")

    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv(self.ENV, raising=False)
        assert resolve_choice_env(self.ENV, "python", self.CHOICES) == "python"

    def test_empty_string_returns_default(self, monkeypatch):
        monkeypatch.setenv(self.ENV, "")
        assert resolve_choice_env(self.ENV, "python", self.CHOICES) == "python"

    def test_whitespace_only_returns_default(self, monkeypatch):
        monkeypatch.setenv(self.ENV, "   ")
        assert resolve_choice_env(self.ENV, "cext", self.CHOICES) == "cext"

    def test_case_and_whitespace_normalized(self, monkeypatch):
        monkeypatch.setenv(self.ENV, "  CeXt ")
        assert resolve_choice_env(self.ENV, "python", self.CHOICES) == "cext"

    def test_exact_choice_passes_through(self, monkeypatch):
        monkeypatch.setenv(self.ENV, "python")
        assert resolve_choice_env(self.ENV, "cext", self.CHOICES) == "python"

    def test_invalid_names_knob_and_choices(self, monkeypatch):
        monkeypatch.setenv(self.ENV, "fortran")
        with pytest.raises(ValueError) as excinfo:
            resolve_choice_env(self.ENV, "python", self.CHOICES)
        message = str(excinfo.value)
        assert self.ENV in message
        assert "'python'" in message and "'cext'" in message
        assert "'fortran'" in message
