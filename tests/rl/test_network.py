"""Tests for the feed-forward network: shapes, gradients, weight ops."""

import numpy as np
import pytest

from repro.rl.network import Dense, FeedForwardNetwork, mlp


@pytest.fixture
def paper_network(rng):
    """The paper's 6-20-30-2 network (Fig. 7b)."""
    return mlp([6, 20, 30, 2], rng=rng)


class TestDense:
    def test_forward_shape(self, rng):
        layer = Dense(4, 3, "relu", rng=rng)
        out = layer.forward(rng.normal(size=(5, 4)))
        assert out.shape == (5, 3)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            Dense(0, 3)
        with pytest.raises(ValueError):
            Dense(3, -1)

    def test_backward_requires_forward(self, rng):
        layer = Dense(4, 3, rng=rng)
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((1, 3)))

    def test_zero_grad(self, rng):
        layer = Dense(2, 2, rng=rng)
        layer.forward(np.ones((1, 2)), train=True)
        layer.backward(np.ones((1, 2)))
        assert np.any(layer.grad_weight != 0)
        layer.zero_grad()
        assert np.all(layer.grad_weight == 0)
        assert np.all(layer.grad_bias == 0)


class TestFeedForwardNetwork:
    def test_paper_shape(self, paper_network):
        assert paper_network.in_features == 6
        assert paper_network.out_features == 2
        out = paper_network.forward(np.zeros(6))
        assert out.shape == (1, 2)

    def test_batch_forward(self, paper_network, rng):
        out = paper_network.forward(rng.normal(size=(17, 6)))
        assert out.shape == (17, 2)

    def test_size_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="mismatch"):
            FeedForwardNetwork([Dense(3, 4, rng=rng), Dense(5, 2, rng=rng)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FeedForwardNetwork([])

    def test_gradient_check(self, rng):
        """Analytic gradients match central differences on a scalar loss."""
        net = mlp([3, 5, 2], hidden_activation="swish", rng=rng)
        x = rng.normal(size=(4, 3))
        target = rng.normal(size=(4, 2))

        def loss_value():
            return 0.5 * np.sum((net.forward(x) - target) ** 2)

        out = net.forward(x, train=True)
        net.zero_grad()
        net.backward(out - target)
        analytic = [g.copy() for g in net.gradients]

        eps = 1e-6
        for p, g in zip(net.parameters, analytic):
            it = np.nditer(p, flags=["multi_index"])
            for _ in range(min(p.size, 10)):  # spot-check entries
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + eps
                up = loss_value()
                p[idx] = orig - eps
                down = loss_value()
                p[idx] = orig
                numeric = (up - down) / (2 * eps)
                assert g[idx] == pytest.approx(numeric, rel=1e-4, abs=1e-6)
                it.iternext()

    def test_clone_independent(self, paper_network):
        clone = paper_network.clone()
        x = np.ones((1, 6))
        np.testing.assert_allclose(
            clone.forward(x), paper_network.forward(x)
        )
        clone.layers[0].weight += 1.0
        assert not np.allclose(clone.forward(x), paper_network.forward(x))

    def test_copy_weights_from(self, rng):
        a = mlp([4, 8, 2], rng=rng)
        b = mlp([4, 8, 2], rng=rng)
        x = rng.normal(size=(3, 4))
        assert not np.allclose(a.forward(x), b.forward(x))
        b.copy_weights_from(a)
        np.testing.assert_allclose(a.forward(x), b.forward(x))

    def test_set_weights_shape_check(self, paper_network):
        weights = paper_network.get_weights()
        weights[0] = np.zeros((2, 2))
        with pytest.raises(ValueError, match="shape mismatch"):
            paper_network.set_weights(weights)

    def test_set_weights_count_check(self, paper_network):
        with pytest.raises(ValueError, match="expected"):
            paper_network.set_weights([np.zeros((6, 20))])

    def test_state_dict_roundtrip(self, paper_network, rng):
        state = paper_network.state_dict()
        other = mlp([6, 20, 30, 2], rng=rng)
        other.load_state_dict(state)
        x = rng.normal(size=(2, 6))
        np.testing.assert_allclose(
            other.forward(x), paper_network.forward(x)
        )

    def test_get_weights_are_copies(self, paper_network):
        weights = paper_network.get_weights()
        weights[0][...] = 99.0
        assert not np.allclose(paper_network.parameters[0], 99.0)


class TestMLPBuilder:
    def test_too_few_sizes(self):
        with pytest.raises(ValueError):
            mlp([5])

    def test_hidden_activation_applied(self, rng):
        net = mlp([2, 3, 1], hidden_activation="relu", rng=rng)
        assert net.layers[0].activation.name == "relu"
        assert net.layers[-1].activation.name == "identity"
