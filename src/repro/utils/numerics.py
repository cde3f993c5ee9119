"""Numerically-stable primitives for log-domain probability arithmetic.

Everything in :mod:`repro.core` (Gibbs posteriors, PAC-Bayes bounds) and
:mod:`repro.information` (entropies, divergences) bottoms out in these
functions, so they are written to be exact in corner cases: empty supports,
zero probabilities, and ``-inf`` log-weights all behave as the measure-theory
conventions demand (``0 log 0 = 0``, a zero-probability atom carries no
divergence mass, etc.).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError


def logsumexp(log_values, axis=None) -> np.ndarray | float:
    """Stable ``log(sum(exp(log_values)))``.

    Unlike :func:`scipy.special.logsumexp` this returns ``-inf`` (not NaN)
    when every entry is ``-inf``, which is the correct value for an empty
    mixture.
    """
    arr = np.asarray(log_values, dtype=float)
    if arr.size == 0:
        raise ValidationError("logsumexp of an empty array is undefined")
    peak = np.max(arr, axis=axis, keepdims=True)
    # Where the peak itself is -inf the whole slice sums to 0 in linear
    # space; substitute 0 for the shift to avoid inf - inf = NaN.
    safe_peak = np.where(np.isfinite(peak), peak, 0.0)
    with np.errstate(divide="ignore"):
        out = safe_peak + np.log(
            np.sum(np.exp(arr - safe_peak), axis=axis, keepdims=True)
        )
    out = np.where(np.isfinite(peak), out, peak)
    if axis is None:
        return float(out.reshape(()))
    return np.squeeze(out, axis=axis)


#: From this many columns numpy sums a row pairwise, with 8 accumulators.
_PAIRWISE_COLUMNS = 8


def row_sums(values: np.ndarray) -> np.ndarray:
    """``values.sum(axis=1)`` for a 2-D float array, bit for bit, and
    faster on short rows.

    Below 8 columns numpy adds a row left to right, starting from +0.0,
    but one row at a time; adding whole columns in the same order gives
    the same bits at a fraction of the cost. The ``0.0 +`` makes a row of
    ``-0.0`` sum to ``+0.0``, as numpy does, and each column add
    allocates (an in-place add on one row takes numpy's reduce path,
    which can pick the other NaN payload). Wider rows, and empty ones, go
    to numpy.
    """
    width = values.shape[1]
    if width == 0 or width >= _PAIRWISE_COLUMNS:
        return values.sum(axis=1)
    total = 0.0 + values[:, 0]
    for column in range(1, width):
        total = total + values[:, column]
    return total


def log_mean_exp(log_values, axis=None) -> np.ndarray | float:
    """Stable ``log(mean(exp(log_values)))``."""
    arr = np.asarray(log_values, dtype=float)
    if axis is None:
        count = arr.size
    else:
        count = arr.shape[axis]
    return logsumexp(arr, axis=axis) - np.log(count)


def softmax(scores, axis=None) -> np.ndarray:
    """Stable softmax; rows of ``-inf`` scores receive probability zero."""
    arr = np.asarray(scores, dtype=float)
    peak = np.max(arr, axis=axis, keepdims=True)
    safe_peak = np.where(np.isfinite(peak), peak, 0.0)
    unnorm = np.exp(arr - safe_peak)
    total = np.sum(unnorm, axis=axis, keepdims=True)
    if np.any(total == 0):
        raise ValidationError("softmax received a slice of all -inf scores")
    return unnorm / total


def normalize_log_weights(log_weights) -> np.ndarray:
    """Turn unnormalized log-weights into a probability vector."""
    arr = np.asarray(log_weights, dtype=float)
    if arr.ndim != 1:
        raise ValidationError("log_weights must be one-dimensional")
    return np.exp(arr - logsumexp(arr))


def stable_log(values) -> np.ndarray:
    """Elementwise log mapping 0 to ``-inf`` without warnings."""
    arr = np.asarray(values, dtype=float)
    with np.errstate(divide="ignore"):
        return np.log(arr)


def xlogx(values) -> np.ndarray:
    """Elementwise ``x * log(x)`` with the convention ``0 log 0 = 0``."""
    arr = np.asarray(values, dtype=float)
    out = np.zeros_like(arr)
    mask = arr > 0
    out[mask] = arr[mask] * np.log(arr[mask])
    return out


def xlogy(x, y) -> np.ndarray:
    """Elementwise ``x * log(y)`` with the convention ``0 * log(anything) = 0``.

    When ``x > 0`` and ``y == 0`` the result is ``-inf``, matching the
    divergence convention that mass on an impossible event costs infinitely.
    """
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    x_arr, y_arr = np.broadcast_arrays(x_arr, y_arr)
    out = np.zeros(x_arr.shape, dtype=float)
    mask = x_arr != 0
    with np.errstate(divide="ignore"):
        out[mask] = x_arr[mask] * np.log(y_arr[mask])
    return out
