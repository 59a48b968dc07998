"""Tests for the categorical DQN: projection invariants and learning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.rl.c51 import C51Config, C51Network, project_distribution


@pytest.fixture
def config():
    return C51Config(n_observations=4, n_actions=2, n_atoms=11, v_min=0.0, v_max=10.0)


@pytest.fixture
def net(config, rng):
    return C51Network(config, rng=rng)


SUPPORT = np.linspace(0.0, 10.0, 11)


class TestProjection:
    def test_mass_conserved(self):
        probs = np.full((3, 11), 1.0 / 11)
        m = project_distribution(probs, np.array([1.0, 2.0, 3.0]),
                                 np.zeros(3, bool), SUPPORT, 0.9)
        np.testing.assert_allclose(m.sum(axis=1), 1.0)

    def test_terminal_collapses_to_reward(self):
        probs = np.full((1, 11), 1.0 / 11)
        m = project_distribution(probs, np.array([4.0]), np.array([True]),
                                 SUPPORT, 0.9)
        # All mass should sit exactly on the atom at 4.0.
        assert m[0, 4] == pytest.approx(1.0)

    def test_terminal_between_atoms_splits(self):
        probs = np.full((1, 11), 1.0 / 11)
        m = project_distribution(probs, np.array([4.5]), np.array([True]),
                                 SUPPORT, 0.9)
        assert m[0, 4] == pytest.approx(0.5)
        assert m[0, 5] == pytest.approx(0.5)

    def test_clipping_at_vmax(self):
        probs = np.zeros((1, 11))
        probs[0, -1] = 1.0  # all mass at z=10
        m = project_distribution(probs, np.array([100.0]), np.zeros(1, bool),
                                 SUPPORT, 0.9)
        assert m[0, -1] == pytest.approx(1.0)

    def test_clipping_at_vmin(self):
        probs = np.zeros((1, 11))
        probs[0, 0] = 1.0
        m = project_distribution(probs, np.array([-100.0]), np.zeros(1, bool),
                                 SUPPORT, 0.9)
        assert m[0, 0] == pytest.approx(1.0)

    def test_expected_value_preserved_without_clipping(self):
        probs = np.zeros((1, 11))
        probs[0, 3] = 0.5
        probs[0, 6] = 0.5
        r, gamma = 1.0, 0.5
        m = project_distribution(probs, np.array([r]), np.zeros(1, bool),
                                 SUPPORT, gamma)
        expected = r + gamma * (0.5 * SUPPORT[3] + 0.5 * SUPPORT[6])
        assert m[0] @ SUPPORT == pytest.approx(expected)

    @settings(deadline=None, max_examples=50)
    @given(
        raw=hnp.arrays(np.float64, (11,), elements=st.floats(0.01, 1.0)),
        reward=st.floats(-5.0, 15.0),
        gamma=st.floats(0.0, 1.0),
    )
    def test_projection_is_valid_pmf(self, raw, reward, gamma):
        probs = (raw / raw.sum()).reshape(1, -1)
        m = project_distribution(probs, np.array([reward]),
                                 np.zeros(1, bool), SUPPORT, gamma)
        assert m.min() >= -1e-12
        assert m.sum() == pytest.approx(1.0)


class TestC51Network:
    def test_distribution_shapes(self, net, rng):
        obs = rng.normal(size=(5, 4))
        dist = net.distributions(obs)
        assert dist.shape == (5, 2, 11)
        np.testing.assert_allclose(dist.sum(axis=-1), 1.0)

    def test_q_values_within_support(self, net, rng):
        q = net.q_values(rng.normal(size=(8, 4)))
        assert np.all(q >= 0.0) and np.all(q <= 10.0)

    def test_best_action_consistent(self, net, rng):
        obs = rng.normal(size=4)
        assert net.best_action(obs) == int(
            np.argmax(net.q_values(np.atleast_2d(obs))[0])
        )

    def test_best_actions_batch(self, net, rng):
        obs = rng.normal(size=(6, 4))
        np.testing.assert_array_equal(
            net.best_actions(obs),
            [net.best_action(o) for o in obs],
        )

    def test_training_reduces_loss(self, config, rng):
        """The network learns a constant reward for one action."""
        net = C51Network(
            C51Config(n_observations=4, n_actions=2, n_atoms=11,
                      v_min=0.0, v_max=10.0, learning_rate=1e-2,
                      optimizer="adam", discount=0.0),
            rng=rng,
        )
        obs = rng.normal(size=(64, 4))
        actions = np.zeros(64, dtype=int)
        rewards = np.full(64, 7.0)
        first = net.train_batch(obs, actions, rewards, obs,
                                dones=np.ones(64, bool))
        last = first
        for _ in range(100):
            last = net.train_batch(obs, actions, rewards, obs,
                                   dones=np.ones(64, bool))
        assert last < first
        # Q(s, 0) should approach 7 with gamma=0 and terminal targets.
        assert net.q_values(obs)[:, 0].mean() == pytest.approx(7.0, abs=1.0)

    def test_action_range_checked(self, net, rng):
        obs = rng.normal(size=(2, 4))
        with pytest.raises(ValueError, match="action index"):
            net.train_batch(obs, [0, 5], [1.0, 1.0], obs)

    def test_batch_size_mismatch(self, net, rng):
        obs = rng.normal(size=(2, 4))
        with pytest.raises(ValueError, match="batch size mismatch"):
            net.train_batch(obs, [0], [1.0, 1.0], obs)

    def test_weight_copy_synchronises(self, net, rng):
        clone = net.clone()
        obs = rng.normal(size=(3, 4))
        net.train_batch(obs, [0, 1, 0], [1.0, 2.0, 3.0], obs)
        assert not np.allclose(clone.q_values(obs), net.q_values(obs))
        clone.copy_weights_from(net)
        np.testing.assert_allclose(clone.q_values(obs), net.q_values(obs))

    def test_target_network_used(self, net, rng):
        target = net.clone()
        obs = rng.normal(size=(4, 4))
        loss = net.train_batch(obs, [0, 1, 0, 1], np.ones(4), obs,
                               target=target)
        assert np.isfinite(loss)

    def test_train_steps_counted(self, net, rng):
        obs = rng.normal(size=(2, 4))
        net.train_batch(obs, [0, 1], [1.0, 1.0], obs)
        assert net.train_steps == 1


class TestC51Config:
    def test_validation(self):
        with pytest.raises(ValueError):
            C51Config(n_atoms=1)
        with pytest.raises(ValueError):
            C51Config(v_min=5.0, v_max=5.0)
        with pytest.raises(ValueError):
            C51Config(discount=1.5)
        with pytest.raises(ValueError):
            C51Config(n_actions=0)

    def test_paper_defaults(self):
        cfg = C51Config()
        assert cfg.n_observations == 6
        assert cfg.hidden_sizes == (20, 30)
        assert cfg.discount == 0.9
        assert cfg.n_atoms == 51
