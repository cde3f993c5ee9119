"""Unit tests for repro.utils.validation."""

import math
import numbers
from fractions import Fraction

import numpy as np
import pytest

from repro.exceptions import NotNormalizedError, ValidationError
from repro.utils.validation import (
    check_array,
    check_in_range,
    check_positive,
    check_probability_vector,
    check_random_state,
)


class TestCheckRandomState:
    def test_none_gives_generator(self):
        assert isinstance(check_random_state(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = check_random_state(42).uniform()
        b = check_random_state(42).uniform()
        assert a == b

    def test_generator_passes_through(self):
        gen = np.random.default_rng(0)
        assert check_random_state(gen) is gen

    def test_legacy_random_state_is_bridged(self):
        legacy = np.random.RandomState(0)
        assert isinstance(check_random_state(legacy), np.random.Generator)

    def test_bad_seed_raises(self):
        with pytest.raises(ValidationError):
            check_random_state("not a seed")


class TestCheckArray:
    def test_coerces_lists(self):
        arr = check_array([1, 2, 3])
        assert arr.dtype == float
        assert arr.shape == (3,)

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValidationError, match="2-dimensional"):
            check_array([1.0, 2.0], ndim=2)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError, match="finite"):
            check_array([1.0, np.nan])

    def test_rejects_inf(self):
        with pytest.raises(ValidationError, match="finite"):
            check_array([np.inf])

    def test_rejects_empty_by_default(self):
        with pytest.raises(ValidationError, match="empty"):
            check_array([])

    def test_allows_empty_when_asked(self):
        assert check_array([], allow_empty=True).size == 0


class TestCheckPositive:
    def test_accepts_positive(self):
        assert check_positive(2.5) == 2.5

    def test_rejects_zero_when_strict(self):
        with pytest.raises(ValidationError):
            check_positive(0.0)

    def test_accepts_zero_when_not_strict(self):
        assert check_positive(0.0, strict=False) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            check_positive(-1.0, strict=False)

    def test_rejects_inf(self):
        with pytest.raises(ValidationError):
            check_positive(np.inf)

    def test_rejects_non_number(self):
        with pytest.raises(ValidationError):
            check_positive("three")

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            check_positive(np.nan)

    def test_rejects_nan_even_when_not_strict(self):
        with pytest.raises(ValidationError):
            check_positive(np.nan, strict=False)

    def test_rejects_negative_inf(self):
        with pytest.raises(ValidationError):
            check_positive(-np.inf)

    def test_rejects_none(self):
        with pytest.raises(ValidationError):
            check_positive(None)

    def test_rejects_bool_like_containers(self):
        with pytest.raises(ValidationError):
            check_positive([1.0])

    def test_error_message_names_the_parameter(self):
        with pytest.raises(ValidationError, match="epsilon"):
            check_positive(-1.0, name="epsilon")


class TestPrivacyParameterEdgeCases:
    """The ε/δ validation paths dplint rule DPL002 relies on."""

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_degenerate_epsilon_rejected(self, epsilon):
        with pytest.raises(ValidationError):
            check_positive(epsilon, name="epsilon")

    @pytest.mark.parametrize("epsilon", ["1.0", None, [1.0], object()])
    def test_non_numeric_epsilon_rejected(self, epsilon):
        with pytest.raises(ValidationError):
            check_positive(epsilon, name="epsilon")

    @pytest.mark.parametrize("delta", [-1e-9, 1.0 + 1e-9, np.nan, np.inf])
    def test_out_of_range_delta_rejected(self, delta):
        with pytest.raises(ValidationError):
            check_in_range(delta, name="delta", low=0.0, high=1.0)

    @pytest.mark.parametrize("delta", [0.0, 1.0])
    def test_boundary_delta_rejected_when_exclusive(self, delta):
        with pytest.raises(ValidationError):
            check_in_range(
                delta, name="delta", low=0.0, high=1.0, inclusive=False
            )

    def test_nan_delta_rejected_even_inclusive(self):
        # NaN compares false against every bound, so it must not slip
        # through either branch of the range check.
        with pytest.raises(ValidationError):
            check_in_range(np.nan, name="delta", low=0.0, high=1.0)

    @pytest.mark.parametrize("delta", ["0.1", None, [0.5]])
    def test_non_numeric_delta_rejected(self, delta):
        with pytest.raises(ValidationError):
            check_in_range(delta, name="delta", low=0.0, high=1.0)

    def test_valid_epsilon_returned_as_float(self):
        value = check_positive(np.float64(0.5), name="epsilon")
        assert isinstance(value, float)
        assert value == 0.5

    def test_valid_delta_returned_as_float(self):
        value = check_in_range(1e-6, name="delta", low=0.0, high=1.0)
        assert isinstance(value, float)
        assert value == 1e-6


class TestCheckInRange:
    def test_inclusive_endpoints(self):
        assert check_in_range(0.0, low=0.0, high=1.0) == 0.0
        assert check_in_range(1.0, low=0.0, high=1.0) == 1.0

    def test_exclusive_endpoints_rejected(self):
        with pytest.raises(ValidationError):
            check_in_range(0.0, low=0.0, high=1.0, inclusive=False)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            check_in_range(1.5, low=0.0, high=1.0)


class TestCheckProbabilityVector:
    def test_valid_vector_renormalized_exactly(self):
        out = check_probability_vector([0.25, 0.75])
        assert out.sum() == pytest.approx(1.0, abs=0)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            check_probability_vector([-0.1, 1.1])

    def test_rejects_not_summing_to_one(self):
        with pytest.raises(NotNormalizedError):
            check_probability_vector([0.5, 0.4])

    def test_accepts_within_tolerance(self):
        out = check_probability_vector([0.5, 0.5 + 1e-10])
        assert out.sum() == pytest.approx(1.0)


# Verbatim copies of the validators before their ``float`` fast path: the
# reference the fast path must agree with, input for input.
def reference_check_positive(value, *, name: str = "value", strict: bool = True) -> float:
    """Validate that a scalar is (strictly) positive and finite."""
    if not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if not np.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value}")
    if strict and value <= 0:
        raise ValidationError(f"{name} must be > 0, got {value}")
    if not strict and value < 0:
        raise ValidationError(f"{name} must be >= 0, got {value}")
    return value


def reference_check_in_range(
    value,
    *,
    name: str = "value",
    low: float = -np.inf,
    high: float = np.inf,
    inclusive: bool = True,
) -> float:
    """Validate that a scalar lies in ``[low, high]`` (or ``(low, high)``)."""
    if not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} must be a real number, got {value!r}")
    value = float(value)
    if inclusive:
        ok = low <= value <= high
        bounds = f"[{low}, {high}]"
    else:
        ok = low < value < high
        bounds = f"({low}, {high})"
    if not ok:
        raise ValidationError(f"{name} must lie in {bounds}, got {value}")
    return value


EQUIVALENCE_INPUTS = [
    0.05,
    5e-324,
    0.0,
    -0.0,
    1.0,
    math.nextafter(1.0, 2.0),
    1e308,
    math.inf,
    -math.inf,
    math.nan,
    np.float64(0.5),
    np.float32(0.25),
    3,
    True,
    Fraction(1, 3),
    np.array(0.5),
    "1",
    None,
]

# Every input goes through each call: both ``strict`` settings, the δ
# range [0, 1] inclusive and exclusive, and the default unbounded range.
EQUIVALENCE_CALLS = {
    "positive-strict": (check_positive, reference_check_positive, {}),
    "positive-nonstrict": (
        check_positive, reference_check_positive, {"strict": False}
    ),
    "delta-inclusive": (
        check_in_range, reference_check_in_range,
        {"name": "delta", "low": 0.0, "high": 1.0},
    ),
    "delta-exclusive": (
        check_in_range, reference_check_in_range,
        {"name": "delta", "low": 0.0, "high": 1.0, "inclusive": False},
    ),
    "unbounded": (check_in_range, reference_check_in_range, {}),
}


def _outcome(validator, value, kwargs):
    """What a call gives: the returned value down to its bits, or the
    raised exception's type and message."""
    try:
        result = validator(value, **kwargs)
    except Exception as error:  # compared, never swallowed: see the test
        return ("raised", type(error), str(error))
    return (
        "returned", type(result), repr(result), math.copysign(1.0, result)
    )


class TestFloatFastPathEquivalence:
    """The ``float`` fast path of ``check_positive``/``check_in_range``
    returns exactly what the ``numbers.Real`` path returns and raises
    exactly what it raises, for floats at every edge and for every other
    type (which never takes the fast path)."""

    @pytest.mark.parametrize("call", sorted(EQUIVALENCE_CALLS))
    @pytest.mark.parametrize(
        "value", EQUIVALENCE_INPUTS, ids=[repr(v) for v in EQUIVALENCE_INPUTS]
    )
    def test_same_result_as_the_abc_path(self, value, call):
        validator, reference, kwargs = EQUIVALENCE_CALLS[call]
        assert _outcome(validator, value, kwargs) == _outcome(
            reference, value, kwargs
        )
