"""Tests for the plain DQN head (the paper's C51 ablation partner)."""

import numpy as np
import pytest

from repro.rl.dqn import DQNConfig, DQNNetwork


@pytest.fixture
def net(rng):
    return DQNNetwork(
        DQNConfig(n_observations=4, n_actions=2, learning_rate=1e-2,
                  optimizer="adam"),
        rng=rng,
    )


class TestDQN:
    def test_q_shape(self, net, rng):
        assert net.q_values(rng.normal(size=(5, 4))).shape == (5, 2)

    def test_best_action(self, net, rng):
        obs = rng.normal(size=4)
        q = net.q_values(np.atleast_2d(obs))[0]
        assert net.best_action(obs) == int(np.argmax(q))

    def test_learns_terminal_reward(self, net, rng):
        obs = rng.normal(size=(64, 4))
        for _ in range(300):
            net.train_batch(obs, np.zeros(64, int), np.full(64, 3.0), obs,
                            dones=np.ones(64, bool))
        assert net.q_values(obs)[:, 0].mean() == pytest.approx(3.0, abs=0.5)

    def test_action_range_checked(self, net, rng):
        obs = rng.normal(size=(1, 4))
        with pytest.raises(ValueError):
            net.train_batch(obs, [9], [0.0], obs)

    def test_discount_propagates(self, rng):
        """With gamma>0 and non-terminal, target includes bootstrap."""
        net = DQNNetwork(
            DQNConfig(n_observations=2, n_actions=2, discount=0.9,
                      learning_rate=1e-2, optimizer="adam"),
            rng=rng,
        )
        obs = np.zeros((32, 2))
        for _ in range(500):
            net.train_batch(obs, np.zeros(32, int), np.ones(32), obs)
        # Fixed point of Q = 1 + 0.9 * Q is 10.
        assert net.q_values(obs)[:, 0].mean() == pytest.approx(10.0, rel=0.3)

    def test_clone_and_copy(self, net, rng):
        clone = net.clone()
        obs = rng.normal(size=(3, 4))
        np.testing.assert_allclose(clone.q_values(obs), net.q_values(obs))
        net.train_batch(obs, [0, 1, 0], [1.0, 1.0, 1.0], obs)
        clone.copy_weights_from(net)
        np.testing.assert_allclose(clone.q_values(obs), net.q_values(obs))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DQNConfig(discount=-0.1)
        with pytest.raises(ValueError):
            DQNConfig(n_observations=0)

    def test_huber_loss_finite_for_outliers(self, net, rng):
        obs = rng.normal(size=(4, 4))
        loss = net.train_batch(obs, [0, 1, 0, 1], [1e6, -1e6, 0, 0], obs)
        assert np.isfinite(loss)
