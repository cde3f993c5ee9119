"""Unit tests for repro.utils.numerics."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.exceptions import ValidationError
from repro.utils.numerics import (
    logsumexp,
    normalize_log_weights,
    softmax,
    stable_log,
    xlogx,
)


class TestLogsumexp:
    def test_matches_direct_computation(self):
        values = np.array([-1.0, 0.0, 2.0])
        assert logsumexp(values) == pytest.approx(np.log(np.exp(values).sum()))

    def test_no_overflow_for_huge_values(self):
        assert logsumexp([1000.0, 1000.0]) == pytest.approx(1000.0 + np.log(2))

    def test_all_minus_inf_gives_minus_inf(self):
        assert logsumexp([-np.inf, -np.inf]) == -np.inf

    def test_axis_handling(self):
        arr = np.log(np.array([[1.0, 1.0], [2.0, 2.0]]))
        out = logsumexp(arr, axis=1)
        assert out == pytest.approx(np.log([2.0, 4.0]))

    def test_empty_raises(self):
        with pytest.raises(ValidationError):
            logsumexp([])

    @given(
        hnp.arrays(
            float,
            st.integers(1, 20),
            elements=st.floats(-50, 50),
        )
    )
    def test_always_at_least_max(self, arr):
        assert logsumexp(arr) >= arr.max() - 1e-12


class TestSoftmax:
    def test_sums_to_one(self):
        out = softmax([1.0, 2.0, 3.0])
        assert out.sum() == pytest.approx(1.0)

    def test_invariant_to_shift(self):
        a = softmax([1.0, 2.0])
        b = softmax([101.0, 102.0])
        assert a == pytest.approx(b)

    def test_minus_inf_gets_zero(self):
        out = softmax([0.0, -np.inf])
        assert out == pytest.approx([1.0, 0.0])

    def test_all_minus_inf_raises(self):
        with pytest.raises(ValidationError):
            softmax([-np.inf, -np.inf])


class TestNormalizeLogWeights:
    def test_normalizes(self):
        out = normalize_log_weights(np.log([2.0, 6.0]))
        assert out == pytest.approx([0.25, 0.75])

    def test_huge_weights_stable(self):
        out = normalize_log_weights([5000.0, 5000.0])
        assert out == pytest.approx([0.5, 0.5])

    def test_rejects_2d(self):
        with pytest.raises(ValidationError):
            normalize_log_weights([[0.0], [0.0]])


class TestXlog:
    def test_xlogx_zero_convention(self):
        assert xlogx([0.0]) == pytest.approx([0.0])

    def test_xlogx_value(self):
        assert xlogx([np.e]) == pytest.approx([np.e])

    def test_stable_log_of_zero(self):
        assert stable_log([0.0])[0] == -np.inf
