"""Unit tests for loss functions."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.learning import (
    AbsoluteLoss,
    HingeLoss,
    HuberHingeLoss,
    LogisticLoss,
    SquaredLoss,
    TruncatedLoss,
    ZeroOneLoss,
)

margins = st.floats(-50, 50)


class TestZeroOneLoss:
    def test_values(self):
        loss = ZeroOneLoss()
        assert loss.value([-1.0, 0.0, 1.0]) == pytest.approx([1.0, 1.0, 0.0])

    def test_bounded(self):
        assert ZeroOneLoss().bounds() == (0.0, 1.0)

    def test_not_lipschitz(self):
        assert ZeroOneLoss().lipschitz_constant == np.inf


class TestLogisticLoss:
    def test_value_at_zero(self):
        assert LogisticLoss().value([0.0]) == pytest.approx([np.log(2)])

    def test_stable_for_large_negative_margin(self):
        out = LogisticLoss().value([-500.0])
        assert np.isfinite(out[0])
        assert out[0] == pytest.approx(500.0)

    def test_stable_for_large_positive_margin(self):
        assert LogisticLoss().value([500.0])[0] == pytest.approx(0.0, abs=1e-12)

    def test_derivative_is_negative_sigmoid(self):
        assert LogisticLoss().derivative([0.0]) == pytest.approx([-0.5])

    def test_derivative_matches_finite_difference(self):
        loss = LogisticLoss()
        u, h = 0.7, 1e-6
        fd = (loss.value([u + h])[0] - loss.value([u - h])[0]) / (2 * h)
        assert loss.derivative([u])[0] == pytest.approx(fd, abs=1e-6)

    def test_second_derivative_matches_finite_difference(self):
        loss = LogisticLoss()
        u, h = -0.3, 1e-5
        fd = (
            loss.derivative([u + h])[0] - loss.derivative([u - h])[0]
        ) / (2 * h)
        assert loss.second_derivative([u])[0] == pytest.approx(fd, abs=1e-5)

    def test_curvature_bounded_by_quarter(self):
        us = np.linspace(-20, 20, 401)
        assert LogisticLoss().second_derivative(us).max() <= 0.25 + 1e-12

    @given(margins)
    def test_upper_bounds_zero_one(self, u):
        # log-loss / log(2) >= 0-1 loss; here we check the weaker fact that
        # logistic >= log(2) * zero-one at the decision boundary side.
        if u <= 0:
            assert LogisticLoss().value([u])[0] >= np.log(2) - 1e-12


class TestHingeLoss:
    def test_values(self):
        loss = HingeLoss()
        assert loss.value([2.0, 1.0, 0.0]) == pytest.approx([0.0, 0.0, 1.0])

    def test_derivative(self):
        loss = HingeLoss()
        assert loss.derivative([0.0, 2.0]) == pytest.approx([-1.0, 0.0])

    @given(margins)
    def test_upper_bounds_zero_one(self, u):
        assert HingeLoss().value([u])[0] >= ZeroOneLoss().value([u])[0] - 1e-12


class TestHuberHinge:
    def test_regions(self):
        loss = HuberHingeLoss(smoothing=0.5)
        assert loss.value([2.0])[0] == 0.0
        assert loss.value([-1.0])[0] == pytest.approx(2.0)
        assert 0 < loss.value([1.0])[0] < 1.0

    def test_continuous_at_region_boundaries(self):
        loss = HuberHingeLoss(smoothing=0.5)
        for boundary in [0.5, 1.5]:
            left = loss.value([boundary - 1e-9])[0]
            right = loss.value([boundary + 1e-9])[0]
            assert left == pytest.approx(right, abs=1e-6)

    def test_derivative_continuous(self):
        loss = HuberHingeLoss(smoothing=0.5)
        for boundary in [0.5, 1.5]:
            left = loss.derivative([boundary - 1e-9])[0]
            right = loss.derivative([boundary + 1e-9])[0]
            assert left == pytest.approx(right, abs=1e-6)

    def test_derivative_matches_finite_difference(self):
        loss = HuberHingeLoss(smoothing=0.5)
        for u in [-0.5, 0.8, 1.2, 1.9]:
            h = 1e-7
            fd = (loss.value([u + h])[0] - loss.value([u - h])[0]) / (2 * h)
            assert loss.derivative([u])[0] == pytest.approx(fd, abs=1e-5)

    def test_curvature_bound(self):
        loss = HuberHingeLoss(smoothing=0.25)
        us = np.linspace(-3, 3, 601)
        assert loss.second_derivative(us).max() <= 1 / (2 * 0.25) + 1e-12

    def test_rejects_bad_smoothing(self):
        with pytest.raises(ValidationError):
            HuberHingeLoss(smoothing=0.0)


class TestRegressionLosses:
    def test_squared(self):
        assert SquaredLoss().value([3.0]) == pytest.approx([9.0])
        assert SquaredLoss().derivative([3.0]) == pytest.approx([6.0])

    def test_absolute(self):
        assert AbsoluteLoss().value([-2.0]) == pytest.approx([2.0])
        assert AbsoluteLoss().lipschitz_constant == 1.0


class TestTruncatedLoss:
    def test_clips_at_ceiling(self):
        loss = TruncatedLoss(HingeLoss(), ceiling=1.0)
        assert loss.value([-5.0])[0] == 1.0
        assert loss.bounds() == (0.0, 1.0)

    def test_below_ceiling_unchanged(self):
        loss = TruncatedLoss(HingeLoss(), ceiling=1.0)
        assert loss.value([0.5])[0] == pytest.approx(0.5)

    def test_derivative_zero_in_clipped_region(self):
        loss = TruncatedLoss(HingeLoss(), ceiling=1.0)
        assert loss.derivative([-5.0])[0] == 0.0
        assert loss.derivative([0.5])[0] == -1.0

    def test_rejects_non_margin_base(self):
        with pytest.raises(ValidationError):
            TruncatedLoss(SquaredLoss(), ceiling=1.0)

    @given(margins)
    def test_always_in_bounds(self, u):
        loss = TruncatedLoss(LogisticLoss(), ceiling=2.0)
        value = loss.value([u])[0]
        assert 0.0 <= value <= 2.0


# Margins with the edge cases of the clip and the stable logistic form:
# huge, infinite and NaN margins, and the exact hinge kinks.
_EDGE_MARGINS = np.array(
    [-np.inf, -1e308, -750.0, -36.0, -1.0, -0.0, 0.0, 0.5, 1.0, 1.5, 36.0,
     750.0, 1e308, np.inf, np.nan]
)


class TestValueAndDerivative:
    """``value_and_derivative`` is one pass for the MALA target and must
    equal the separate ``value`` and ``derivative`` bit for bit."""

    @pytest.mark.parametrize(
        "loss",
        [
            LogisticLoss(),
            HingeLoss(),
            HuberHingeLoss(0.5),
            TruncatedLoss(LogisticLoss(), ceiling=0.5),
            TruncatedLoss(LogisticLoss(), ceiling=1.0),
            TruncatedLoss(HingeLoss(), ceiling=1.0),
            TruncatedLoss(HuberHingeLoss(0.25), ceiling=2.0),
        ],
        ids=repr,
    )
    def test_equals_separate_calls(self, loss):
        rng = np.random.default_rng(12)
        u = np.concatenate(
            [_EDGE_MARGINS, rng.normal(scale=4.0, size=(2_000,))]
        ).reshape(-1, 5)
        with np.errstate(invalid="ignore", over="ignore"):
            value, derivative = loss.value_and_derivative(u)
            np.testing.assert_array_equal(value, loss.value(u))
            np.testing.assert_array_equal(derivative, loss.derivative(u))

    @pytest.mark.parametrize("ceiling", [0.5, 1.0, np.log(2.0), 3.0])
    def test_truncated_mask_equals_raw_base_mask(self, ceiling):
        # The mask reads the clipped value; it must zero exactly where the
        # raw base value reaches the ceiling.
        loss = TruncatedLoss(LogisticLoss(), ceiling=ceiling)
        u = np.concatenate([_EDGE_MARGINS, np.linspace(-5.0, 5.0, 4_001)])
        with np.errstate(invalid="ignore", over="ignore"):
            raw = loss.base.value(u)
            expected = np.where(
                raw >= ceiling, 0.0, loss.base.derivative(u)
            )
            np.testing.assert_array_equal(
                loss.value_and_derivative(u)[1], expected
            )

    def test_logistic_value_equals_two_pass_form(self):
        u = np.concatenate([_EDGE_MARGINS, np.linspace(-40.0, 40.0, 8_001)])
        with np.errstate(invalid="ignore", over="ignore"):
            expected = np.where(
                u > 0,
                np.log1p(np.exp(-np.abs(u))),
                -u + np.log1p(np.exp(-np.abs(u))),
            )
            np.testing.assert_array_equal(LogisticLoss().value(u), expected)
