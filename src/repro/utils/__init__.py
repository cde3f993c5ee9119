"""Shared validation and numerical helpers."""

from repro.utils.validation import (
    check_array,
    check_confidence,
    check_in_range,
    check_positive,
    check_probability_vector,
    check_random_state,
    check_row_stochastic,
)
from repro.utils.numerics import (
    log_mean_exp,
    logsumexp,
    normalize_log_weights,
    softmax,
    stable_log,
    xlogx,
    xlogy,
)

__all__ = [
    "check_array",
    "check_confidence",
    "check_in_range",
    "check_positive",
    "check_probability_vector",
    "check_random_state",
    "check_row_stochastic",
    "log_mean_exp",
    "logsumexp",
    "normalize_log_weights",
    "softmax",
    "stable_log",
    "xlogx",
    "xlogy",
]
