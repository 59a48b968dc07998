"""Tests for the Sibyl agent (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.agent import SibylAgent
from repro.core.hyperparams import SIBYL_DEFAULT
from repro.core.reward import HitRateReward
from repro.hss.devices import make_devices
from repro.hss.request import OpType, Request
from repro.hss.system import HybridStorageSystem


@pytest.fixture
def fast_hp():
    """Small hyper-parameters so training fires quickly in tests."""
    return SIBYL_DEFAULT.replace(
        buffer_capacity=32, batch_size=8, train_interval=16,
        batches_per_training=2,
    )


@pytest.fixture
def agent(fast_hp):
    return SibylAgent(hyperparams=fast_hp, seed=3)


def drive(agent, hss, trace):
    for req in trace:
        action = agent.place(req)
        result = hss.serve(req, action)
        agent.feedback(req, action, result)


def make_requests(n, seed=0):
    rng = np.random.default_rng(seed)
    reqs = []
    ts = 0.0
    for _ in range(n):
        ts += float(rng.exponential(1e-4))
        op = OpType.WRITE if rng.random() < 0.5 else OpType.READ
        reqs.append(Request(ts, op, int(rng.integers(0, 50)), 1))
    return reqs


class TestLifecycle:
    def test_place_before_attach_raises(self, agent):
        with pytest.raises(RuntimeError):
            agent.place(Request(0.0, OpType.READ, 1))

    def test_attach_builds_networks(self, agent, hm_system):
        agent.attach(hm_system)
        assert agent.training_net is not None
        assert agent.inference_net is not None
        assert agent.extractor.n_features == 6
        assert agent.training_net.config.n_actions == 2

    def test_tri_hss_gets_three_actions(self, agent, tri_system):
        """§8.7 extensibility: only the action/feature spaces grow."""
        agent.attach(tri_system)
        assert agent.training_net.config.n_actions == 3
        assert agent.extractor.n_features == 7

    def test_actions_in_range(self, agent, hm_system):
        agent.attach(hm_system)
        for req in make_requests(100):
            assert agent.place(req) in (0, 1)
            agent.feedback(req, agent._current[1],
                           hm_system.serve(req, agent._current[1]))

    def test_feedback_without_place_raises(self, agent, hm_system):
        agent.attach(hm_system)
        with pytest.raises(RuntimeError):
            agent.feedback(Request(0.0, OpType.READ, 1), 0, None)

    def test_feedback_action_mismatch(self, agent, hm_system):
        agent.attach(hm_system)
        req = Request(0.0, OpType.WRITE, 1)
        action = agent.place(req)
        result = hm_system.serve(req, action)
        with pytest.raises(ValueError):
            agent.feedback(req, 1 - action, result)

    def test_invalid_head(self):
        with pytest.raises(ValueError):
            SibylAgent(head="ppo")


class TestLearningMechanics:
    def test_experiences_accumulate(self, agent, hm_system):
        agent.attach(hm_system)
        drive(agent, hm_system, make_requests(20))
        # n requests -> n-1 completed transitions.
        assert agent.buffer.total_added == 19

    def test_training_fires_on_schedule(self, agent, hm_system):
        agent.attach(hm_system)
        drive(agent, hm_system, make_requests(64))
        # train_interval=16, batch_size=8: the first check at request 16
        # already has >= 8 unique experiences, so every interval trains.
        assert agent.train_events == 4
        assert len(agent.losses) == 4 * agent.hyperparams.batches_per_training

    def test_no_training_before_batch_available(self, hm_system, fast_hp):
        """The warm-up gate is one batch of unique experiences — NOT a
        full buffer (a full-buffer gate would mean capacities larger
        than the trace never train; see the Fig. 8 sweep regression
        tests)."""
        agent = SibylAgent(
            hyperparams=fast_hp.replace(train_interval=4), seed=3
        )
        agent.attach(hm_system)
        # 8 requests -> 7 stored transitions < batch_size=8: the checks
        # at requests 4 and 8 must both hold fire.
        drive(agent, hm_system, make_requests(8))
        assert agent.train_events == 0
        # A few more requests push the buffer past one batch and the
        # next interval check trains.
        drive(agent, hm_system, make_requests(8, seed=1))
        assert agent.train_events > 0

    def test_weight_copy_synchronises_networks(self, agent, hm_system):
        agent.attach(hm_system)
        drive(agent, hm_system, make_requests(64))
        obs = np.zeros((1, 6))
        np.testing.assert_allclose(
            agent.inference_net.q_values(obs),
            agent.training_net.q_values(obs),
        )

    def test_exploration_rate_respected(self, hm_system, fast_hp):
        """eps=1.0 -> all actions random; eps=0 -> greedy deterministic."""
        explorer = SibylAgent(
            hyperparams=fast_hp.replace(exploration_rate=1.0), seed=1
        )
        explorer.attach(hm_system)
        actions = []
        for r in make_requests(200):
            a = explorer.place(r)
            actions.append(a)
            explorer.feedback(r, a, hm_system.serve(r, a))
        assert 0.3 < np.mean(actions) < 0.7  # both actions sampled

    def test_dqn_head_variant(self, hm_system, fast_hp):
        agent = SibylAgent(hyperparams=fast_hp, head="dqn", seed=2)
        agent.attach(hm_system)
        drive(agent, hm_system, make_requests(64))
        assert agent.train_events == 4

    def test_custom_reward_object(self, hm_system, fast_hp):
        agent = SibylAgent(hyperparams=fast_hp, reward=HitRateReward())
        agent.attach(hm_system)
        drive(agent, hm_system, make_requests(40))
        assert agent.buffer.total_added > 0

    def test_feature_subset_agent(self, hm_system, fast_hp):
        agent = SibylAgent(hyperparams=fast_hp, feature_set="rt+ft")
        agent.attach(hm_system)
        assert agent.extractor.n_features == 3
        drive(agent, hm_system, make_requests(40))


class TestResetAndDiagnostics:
    def test_reset_forgets_everything(self, agent, hm_system):
        agent.attach(hm_system)
        drive(agent, hm_system, make_requests(64))
        agent.reset()
        assert agent.train_events == 0
        assert len(agent.buffer) == 0
        assert agent.action_counts.sum() == 0

    def test_reset_is_reproducible(self, hm_system, fast_hp):
        def run(agent, hss):
            hss.reset()
            agent.reset()
            agent.attach(hss)
            actions = []
            for req in make_requests(80):
                a = agent.place(req)
                actions.append(a)
                agent.feedback(req, a, hss.serve(req, a))
            return actions

        agent = SibylAgent(hyperparams=fast_hp, seed=9)
        agent.attach(hm_system)
        first = run(agent, hm_system)
        second = run(agent, hm_system)
        assert first == second

    def test_fast_preference(self, agent, hm_system):
        agent.attach(hm_system)
        assert agent.fast_preference == 0.0
        drive(agent, hm_system, make_requests(50))
        assert 0.0 <= agent.fast_preference <= 1.0

    def test_q_snapshot(self, agent, hm_system):
        agent.attach(hm_system)
        q = agent.q_snapshot(Request(0.0, OpType.WRITE, 3))
        assert q.shape == (2,)
        assert np.all(np.isfinite(q))


class TestTrainingGateRegression:
    """The Fig. 8 buffer-capacity sweep must train at *every* point.

    The seed code gated training on ``total_added >= buffer_capacity``,
    so sweep points with capacities larger than the (bench-scale) trace
    silently never trained and degraded to the ε-greedy prior —
    misreproducing the paper's central online-learning claim.
    """

    # Fig. 8 design space (benchmarks/test_fig8_buffer_size.py SIZES).
    FIG8_SIZES = (1, 10, 100, 1000, 10_000)

    def test_trains_with_buffer_larger_than_trace(self):
        """buffer_capacity=10_000 on a 2k-request trace still trains."""
        from repro.core.hyperparams import SIBYL_DEFAULT
        from repro.sim.runner import run_policy
        from repro.traces.workloads import make_trace

        trace = make_trace("rsrch_0", n_requests=2000, seed=0)
        agent = SibylAgent(
            hyperparams=SIBYL_DEFAULT.replace(buffer_capacity=10_000), seed=0
        )
        run_policy(agent, trace, config="H&M")
        assert agent.train_events > 0
        assert len(agent.losses) > 0

    def test_every_fig8_sweep_point_trains(self):
        """All Fig. 8 capacities train on a bench-scale trace."""
        from repro.core.hyperparams import SIBYL_DEFAULT
        from repro.sim.runner import run_policy
        from repro.traces.workloads import make_trace

        trace = make_trace("rsrch_0", n_requests=2000, seed=0)
        for size in self.FIG8_SIZES:
            hp = SIBYL_DEFAULT.replace(
                buffer_capacity=size,
                batch_size=min(SIBYL_DEFAULT.batch_size, max(1, size)),
            )
            agent = SibylAgent(hyperparams=hp, seed=0)
            run_policy(agent, trace, config="H&M")
            assert agent.train_events > 0, (
                f"buffer_capacity={size} never trained"
            )


class TestExternalTrainingHooks:
    """The train_begin/train_commit pair mirroring place_begin/commit:
    ``feedback`` calls them back to back; a driver may call them too."""

    def test_split_path_equals_inline_training(self, fast_hp, hm_system):
        """begin+commit driven from outside, at the requests where
        ``feedback`` would have trained, must compute exactly what
        inline training computes: same RNG draws, losses and weights."""
        def run(external):
            hss = HybridStorageSystem(make_devices("H&M"), [64, None])
            hp = fast_hp.replace(train_interval=2 ** 62) if external else fast_hp
            agent = SibylAgent(hyperparams=hp, seed=4)
            agent.attach(hss)
            for seen, req in enumerate(make_requests(80), start=1):
                action = agent.place(req)
                result = hss.serve(req, action)
                agent.feedback(req, action, result)
                if (external and seen % fast_hp.train_interval == 0
                        and len(agent.buffer) >= fast_hp.batch_size):
                    agent.train_begin()
                    agent.train_commit()
            return agent

        inline, split = run(False), run(True)
        assert inline.losses and inline.losses == split.losses
        assert np.array_equal(
            inline.training_net.network.flat_parameters,
            split.training_net.network.flat_parameters,
        )

    def test_double_begin_rejected(self, agent, hm_system):
        agent.attach(hm_system)
        drive(agent, hm_system, make_requests(17))
        agent.train_begin()
        with pytest.raises(RuntimeError):
            agent.train_begin()

    def test_commit_without_begin_rejected(self, agent, hm_system):
        agent.attach(hm_system)
        with pytest.raises(RuntimeError):
            agent.train_commit()

    def test_external_losses_recorded_verbatim(self, agent, hm_system):
        agent.attach(hm_system)
        drive(agent, hm_system, make_requests(17))
        events = agent.train_events
        agent.train_begin()
        agent.train_commit(losses=[0.5, 0.25])
        assert agent.losses[-2:] == [0.5, 0.25]
        assert agent.train_events == events + 1

    def test_reset_clears_hook_state(self, agent, hm_system):
        agent.attach(hm_system)
        drive(agent, hm_system, make_requests(17))
        agent.train_begin()
        agent.reset()
        assert agent.train_job is None

    def test_weights_version_tracks_weight_rewrites(self, agent, hm_system):
        agent.attach(hm_system)
        version = agent.weights_version
        drive(agent, hm_system, make_requests(40))
        assert agent.train_events > 0
        assert agent.weights_version == version + agent.train_events


class TestCheckpointing:
    def test_save_load_round_trip_restores_weights(self, agent, hm_system,
                                                   tmp_path):
        agent.attach(hm_system)
        drive(agent, hm_system, make_requests(64))
        path = tmp_path / "ckpt.npz"
        agent.save_checkpoint(path)
        saved = agent.training_net.network.state_dict()
        saved_seen = agent._requests_seen
        # Mutate past the checkpoint.
        drive(agent, hm_system, make_requests(64, seed=5))
        agent.load_checkpoint(path)
        restored = agent.training_net.network.state_dict()
        for key, value in saved.items():
            np.testing.assert_array_equal(restored[key], value)
        assert agent._requests_seen == saved_seen

    def test_load_clears_stale_transition_state(self, agent, hm_system,
                                                tmp_path):
        """A restored agent must not complete the pre-restore run's
        half-open transition or report its placement counters."""
        agent.attach(hm_system)
        drive(agent, hm_system, make_requests(40))
        path = tmp_path / "ckpt.npz"
        agent.save_checkpoint(path)
        # Leave a transition half-open: place() without feedback().
        req = Request(100.0, OpType.WRITE, 7, 1)
        agent.place(req)
        assert agent._current is not None
        agent.load_checkpoint(path)
        assert agent._current is None
        assert agent._pending is None
        assert len(agent.buffer) == 0
        assert agent.action_counts.sum() == 0
        # The restored agent serves requests cleanly from scratch.
        drive(agent, hm_system, make_requests(10, seed=9))
        assert agent.buffer.total_added == 9

    def test_load_before_attach_raises(self, agent, tmp_path):
        with pytest.raises(RuntimeError):
            agent.load_checkpoint(tmp_path / "missing.npz")

    def test_load_resets_pretraining_artifacts(self, agent, hm_system,
                                               tmp_path):
        """Pending training jobs and the optimizer's moment estimates
        describe the pre-restore run and must not leak across a load."""
        agent.attach(hm_system)
        drive(agent, hm_system, make_requests(40))
        path = tmp_path / "ckpt.npz"
        agent.save_checkpoint(path)
        drive(agent, hm_system, make_requests(17, seed=2))
        agent.train_begin()
        assert agent.training_net.optimizer._t > 0
        agent.load_checkpoint(path)
        assert agent.train_job is None
        assert agent.training_net.optimizer._t == 0


class TestReproducibility:
    def test_identical_runs_identical_losses(self, fast_hp):
        """Two fresh agents with the same seed produce identical losses
        (replay sampling must not consume unseeded randomness)."""
        from repro.hss.devices import make_devices

        losses = []
        for _ in range(2):
            hss = HybridStorageSystem(make_devices("H&M"), [64, None])
            agent = SibylAgent(hyperparams=fast_hp, seed=11)
            agent.attach(hss)
            drive(agent, hss, make_requests(96))
            losses.append(list(agent.losses))
        assert losses[0], "runs never trained; the test proves nothing"
        assert losses[0] == losses[1]


class TestEndToEndLearning:
    def test_learns_to_use_fast_device_for_writes(self, hl_system):
        """On a write-only hot workload, fast placement wins decisively;
        the agent should discover it from the latency reward alone."""
        hp = SIBYL_DEFAULT.replace(
            buffer_capacity=64, batch_size=32, train_interval=32,
            batches_per_training=4, learning_rate=1e-2,
        )
        agent = SibylAgent(hyperparams=hp, seed=0)
        agent.attach(hl_system)
        rng = np.random.default_rng(1)
        ts = 0.0
        late_actions = []
        for i in range(1500):
            ts += float(rng.exponential(1e-3))
            req = Request(ts, OpType.WRITE, int(rng.integers(0, 32)), 1)
            a = agent.place(req)
            result = hl_system.serve(req, a)
            agent.feedback(req, a, result)
            if i >= 1000:
                late_actions.append(a)
        # The 32-page working set fits in the 64-page fast device, so
        # fast placement has no eviction downside; a learning agent ends
        # up strongly fast-preferring.
        assert np.mean(late_actions) < 0.3  # action 0 == fast
