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


def column_sums(columns: np.ndarray) -> np.ndarray:
    """``np.ascontiguousarray(columns.T).sum(axis=1)`` for a 2-D float
    array, bit for bit: each column summed as numpy sums a C-ordered row.

    The chains-last counterpart of :func:`row_sums`: below 8 rows it adds
    whole rows in numpy's order. From 8 numpy sums a C-ordered row
    pairwise but a Fortran-ordered one (``columns.T`` itself) in
    sequence, so those go to numpy through a C-ordered copy.
    """
    if columns.shape[0] >= _PAIRWISE_COLUMNS:
        return np.ascontiguousarray(columns.T).sum(axis=1)
    return row_sums(columns.T)


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.einsum("md,nd->mn", a, b)`` on a C-ordered ``a``, bit for bit,
    and faster for one or two columns and fewer than 8 rows of ``b``.

    With ``d ≤ 2`` every order einsum may add in sums the same two
    products, and its fused multiply-add onto a zero accumulator rounds
    like a plain product added to +0.0; so ``0.0 + b[:, 0:1]·a₀
    (+ b[:, 1:2]·a₁)`` over whole columns gives einsum's bits, whatever
    the layout of ``a`` (a column of a transposed ``(d, m)`` array is
    contiguous). The result is the ``(m, n)`` transpose of that ``(n, m)``
    array, whose short rows :func:`row_sums` adds by columns. From three
    columns einsum's order follows ``a``'s memory layout, and from 8 rows
    of ``b`` numpy's pairwise row sums follow the result's, so those go
    to einsum with ``a`` as a C-ordered copy. NaN inputs give NaN where
    einsum does, not always with its payload.
    """
    width = a.shape[1]
    if width == 0 or width > 2 or b.shape[0] >= _PAIRWISE_COLUMNS:
        return np.einsum("md,nd->mn", np.ascontiguousarray(a), b)
    total = 0.0 + b[:, 0:1] * a[:, 0]
    if width == 2:
        total = total + b[:, 1:2] * a[:, 1]
    return total.T


def row_combinations(weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``np.einsum("mn,nd->md", weights, rows)`` on a C-ordered
    ``weights``, bit for bit, and faster below 8 rows.

    When ``rows`` is C-ordered with at least two columns, einsum adds the
    ``n`` products of each entry one after another from +0.0; below 8
    rows, adding ``rows[k]`` times the column ``weights[:, k]`` as whole
    ``(d, m)`` arrays in the same order gives the same bits, whatever the
    layout of ``weights``. The result is the ``(m, d)`` transpose of that
    array, so a chains-last caller reads it without a copy. With one
    column, or Fortran-ordered ``rows``, both operands are contiguous
    along ``n`` and einsum's vector loop adds in another order; those,
    wider sums and empty ones go to einsum, with ``weights`` as a
    C-ordered copy. NaN inputs give NaN where einsum does, not always
    with its payload.
    """
    n, width = rows.shape
    if (
        n == 0
        or n >= _PAIRWISE_COLUMNS
        or width < 2
        or not rows.flags.c_contiguous
    ):
        return np.einsum("mn,nd->md", np.ascontiguousarray(weights), rows)
    total = 0.0 + rows[0][:, None] * weights[:, 0]
    for k in range(1, n):
        total = total + rows[k][:, None] * weights[:, k]
    return total.T


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

