"""Shared validation and numerical helpers."""

from repro._lazy import attach as _attach

_EXPORTS = {
    "check_array": "repro.utils.validation",
    "check_confidence": "repro.utils.validation",
    "check_in_range": "repro.utils.validation",
    "check_positive": "repro.utils.validation",
    "check_probability_vector": "repro.utils.validation",
    "check_random_state": "repro.utils.validation",
    "check_row_stochastic": "repro.utils.validation",
    "logsumexp": "repro.utils.numerics",
    "normalize_log_weights": "repro.utils.numerics",
    "softmax": "repro.utils.numerics",
    "stable_log": "repro.utils.numerics",
    "xlogx": "repro.utils.numerics",
}

__all__ = [
    "check_array",
    "check_confidence",
    "check_in_range",
    "check_positive",
    "check_probability_vector",
    "check_random_state",
    "check_row_stochastic",
    "logsumexp",
    "normalize_log_weights",
    "softmax",
    "stable_log",
    "xlogx",
]

__getattr__, __dir__ = _attach(__name__, _EXPORTS)
