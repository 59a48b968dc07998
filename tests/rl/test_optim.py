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


# ---------------------------------------------------------------------------
# Lane-stacked optimizers (``fused_train_event``'s stacked update).
# ---------------------------------------------------------------------------

from repro.rl.optim import (  # noqa: E402
    StackedAdam,
    StackedSGD,
    fusion_signature,
    stack_optimizers,
)


def _stacked_vs_serial(make_optimizer, lane_rates, steps=5, n_params=17,
                       pre_steps=(0, 0, 0)):
    """Run ``steps`` fused updates next to per-lane serial updates.

    ``pre_steps`` advances each serial member's state beforehand (lanes
    enter a fused event with different step counts); the fused path
    gathers that state, steps, and scatters it back.  Returns the two
    parameter matrices plus the members for state comparison.
    """
    rng = np.random.default_rng(0)
    params = rng.standard_normal((len(lane_rates), n_params))
    serial_params = params.copy()
    serial_opts = [make_optimizer(lr) for lr in lane_rates]
    fused_opts = [make_optimizer(lr) for lr in lane_rates]
    for lane, n_pre in enumerate(pre_steps[: len(lane_rates)]):
        for _ in range(n_pre):
            warm = rng.standard_normal(n_params)
            serial_opts[lane].step([serial_params[lane]], [warm])
            fused_opts[lane].step([params[lane]], [warm])
    stacked = stack_optimizers(fused_opts)
    stacked.gather(n_params)
    grads = [rng.standard_normal((len(lane_rates), n_params))
             for _ in range(steps)]
    for grad in grads:
        stacked.step(params, grad)
    stacked.scatter()
    for grad in grads:
        for lane, opt in enumerate(serial_opts):
            opt.step([serial_params[lane]], [grad[lane]])
    return params, serial_params, fused_opts, serial_opts


class TestStackedSGD:
    def test_bitwise_identical_per_lane_rates(self):
        fused, serial, _, _ = _stacked_vs_serial(
            lambda lr: SGD(learning_rate=lr), [0.1, 0.01, 0.003]
        )
        assert np.array_equal(fused, serial)

    def test_momentum_state_round_trips(self):
        fused, serial, f_opts, s_opts = _stacked_vs_serial(
            lambda lr: SGD(learning_rate=lr, momentum=0.9),
            [0.1, 0.02],
            pre_steps=(3, 0),
        )
        assert np.array_equal(fused, serial)
        for f_opt, s_opt in zip(f_opts, s_opts):
            assert np.array_equal(f_opt._velocity[0], s_opt._velocity[0])

    def test_serial_training_continues_identically_after_fused(self):
        """A lane that trains alone after a fused event must continue
        from exactly the scattered state."""
        fused, serial, f_opts, s_opts = _stacked_vs_serial(
            lambda lr: SGD(learning_rate=lr, momentum=0.5), [0.05, 0.05]
        )
        grad = np.full(fused.shape[1], 0.25)
        f_opts[0].step([fused[0]], [grad])
        s_opts[0].step([serial[0]], [grad])
        assert np.array_equal(fused[0], serial[0])


class TestStackedAdam:
    def test_bitwise_identical_per_lane_rates(self):
        fused, serial, _, _ = _stacked_vs_serial(
            lambda lr: Adam(learning_rate=lr), [1e-2, 1e-3, 5e-4, 1e-2]
        )
        assert np.array_equal(fused, serial)

    def test_lanes_with_different_step_counts(self):
        """Bias correction depends on t, which differs when lanes have
        trained different numbers of times before fusing."""
        fused, serial, f_opts, s_opts = _stacked_vs_serial(
            lambda lr: Adam(learning_rate=lr), [1e-2, 1e-2, 1e-3],
            pre_steps=(7, 0, 2),
        )
        assert np.array_equal(fused, serial)
        for f_opt, s_opt in zip(f_opts, s_opts):
            assert f_opt._t == s_opt._t
            assert np.array_equal(f_opt._m[0], s_opt._m[0])
            assert np.array_equal(f_opt._v[0], s_opt._v[0])


class TestStackingRules:
    def test_fusion_signature_excludes_learning_rate(self):
        assert fusion_signature(Adam(1e-2)) == fusion_signature(Adam(1e-4))
        assert fusion_signature(SGD(0.1)) == fusion_signature(SGD(0.5))

    def test_fusion_signature_separates_constants(self):
        assert fusion_signature(SGD(0.1)) != fusion_signature(
            SGD(0.1, momentum=0.9)
        )
        assert fusion_signature(Adam(1e-2)) != fusion_signature(
            Adam(1e-2, beta1=0.8)
        )
        assert fusion_signature(SGD(0.1)) != fusion_signature(Adam(0.1))

    def test_mixed_types_rejected(self):
        with pytest.raises(ValueError):
            stack_optimizers([SGD(0.1), Adam(0.1)])
        with pytest.raises(ValueError):
            StackedAdam([Adam(1e-2), Adam(1e-2, beta1=0.5)])
        with pytest.raises(ValueError):
            StackedSGD([SGD(0.1), SGD(0.1, momentum=0.9)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            stack_optimizers([])
