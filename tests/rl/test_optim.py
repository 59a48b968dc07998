"""Tests for SGD and Adam optimizers."""

import numpy as np
import pytest

from repro.rl.optim import SGD, Adam, get_optimizer


def quadratic_descent(optimizer, steps=200):
    """Minimise f(x) = x^2 from x=5; return final |x|."""
    x = np.array([5.0])
    for _ in range(steps):
        optimizer.step([x], [2.0 * x])
    return abs(float(x[0]))


class TestSGD:
    def test_plain_step(self):
        opt = SGD(learning_rate=0.1)
        p = np.array([1.0])
        opt.step([p], [np.array([1.0])])
        assert p[0] == pytest.approx(0.9)

    def test_converges_on_quadratic(self):
        assert quadratic_descent(SGD(learning_rate=0.1)) < 1e-6

    def test_momentum_accelerates(self):
        slow = quadratic_descent(SGD(learning_rate=0.01), steps=50)
        fast = quadratic_descent(
            SGD(learning_rate=0.01, momentum=0.9), steps=50
        )
        assert fast < slow

    def test_momentum_validation(self):
        with pytest.raises(ValueError):
            SGD(0.1, momentum=1.0)
        with pytest.raises(ValueError):
            SGD(0.1, momentum=-0.1)

    def test_lr_validation(self):
        with pytest.raises(ValueError):
            SGD(learning_rate=0.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            SGD(0.1).step([np.zeros(2)], [])

    def test_reset_clears_velocity(self):
        opt = SGD(0.1, momentum=0.9)
        p = np.array([1.0])
        opt.step([p], [np.array([1.0])])
        assert opt._velocity
        opt.reset()
        assert not opt._velocity

    def test_in_place_update(self):
        opt = SGD(0.1)
        p = np.array([1.0])
        ref = p
        opt.step([p], [np.array([1.0])])
        assert ref is p  # same array object


class TestAdam:
    def test_converges_on_quadratic(self):
        assert quadratic_descent(Adam(learning_rate=0.3), steps=300) < 1e-3

    def test_bias_correction_first_step(self):
        # First Adam step moves by ~lr regardless of gradient scale.
        opt = Adam(learning_rate=0.1)
        p = np.array([0.0])
        opt.step([p], [np.array([1e-4])])
        assert abs(p[0]) == pytest.approx(0.1, rel=1e-3)

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            Adam(0.1, beta1=1.0)
        with pytest.raises(ValueError):
            Adam(0.1, beta2=-0.1)

    def test_state_dict(self):
        opt = Adam(0.01)
        d = opt.state_dict()
        assert d["learning_rate"] == 0.01
        assert d["t"] == 0

    def test_reset(self):
        opt = Adam(0.1)
        p = np.array([1.0])
        opt.step([p], [np.array([1.0])])
        assert opt._t == 1
        opt.reset()
        assert opt._t == 0 and not opt._m

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Adam(0.1).step([], [np.zeros(1)])


class TestRegistry:
    def test_lookup(self):
        assert isinstance(get_optimizer("sgd", 0.1), SGD)
        assert isinstance(get_optimizer("ADAM", 0.1), Adam)

    def test_kwargs_forwarded(self):
        opt = get_optimizer("sgd", 0.1, momentum=0.5)
        assert opt.momentum == 0.5

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown optimizer"):
            get_optimizer("rmsprop", 0.1)
