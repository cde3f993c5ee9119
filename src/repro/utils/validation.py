"""Argument validation helpers used across the library.

These functions raise :class:`repro.exceptions.ValidationError` (a subclass
of ``ValueError``) with descriptive messages, so every public entry point
can validate its inputs in one line each.
"""

from __future__ import annotations

import numbers

import numpy as np

from repro.exceptions import NotNormalizedError, ValidationError

#: Absolute tolerance used when checking that probabilities sum to one.
PROBABILITY_ATOL = 1e-8

#: The widest ``|total - 1|`` a probability sum may show:
#: ``np.isclose(total, 1.0, atol=PROBABILITY_ATOL)`` with its default
#: ``rtol=1e-5`` and ``b = 1``. NaN and ±inf fail ``<=`` against it, as
#: they fail ``np.isclose``.
PROBABILITY_SLACK = PROBABILITY_ATOL + 1e-5

_INF = float("inf")


def check_random_state(seed) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` (fresh nondeterministic generator), an ``int`` seed, a
        ``numpy.random.Generator`` (returned unchanged), or a legacy
        ``numpy.random.RandomState`` (wrapped).
    """
    if seed is None:
        return np.random.default_rng()
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, numbers.Integral):
        return np.random.default_rng(int(seed))
    if isinstance(seed, np.random.RandomState):
        # Bridge legacy RandomState into the Generator API.
        return np.random.default_rng(seed.randint(0, 2**32 - 1))
    raise ValidationError(
        f"cannot construct a random generator from {seed!r}"
    )


def check_array(
    value,
    *,
    name: str = "array",
    ndim: int | None = None,
    dtype=float,
    allow_empty: bool = False,
) -> np.ndarray:
    """Coerce ``value`` to a finite ndarray and validate its shape.

    Raises
    ------
    ValidationError
        If the array contains NaN/inf, has the wrong number of dimensions,
        or is empty while ``allow_empty`` is false.
    """
    arr = np.asarray(value, dtype=dtype)
    if ndim is not None and arr.ndim != ndim:
        raise ValidationError(
            f"{name} must be {ndim}-dimensional, got shape {arr.shape}"
        )
    if not allow_empty and arr.size == 0:
        raise ValidationError(f"{name} must not be empty")
    if np.issubdtype(arr.dtype, np.floating) and not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} must contain only finite values")
    return arr


def check_positive(value, *, name: str = "value", strict: bool = True) -> float:
    """Validate that a scalar is (strictly) positive and finite."""
    # Fast path for the common case, a valid ``float``: it skips the
    # ``numbers.Real`` ABC check, the costliest step of admission. NaN
    # fails both comparisons, so it (and every other type) takes the
    # general path below.
    if type(value) is float and (
        0.0 < value < _INF if strict else 0.0 <= value < _INF
    ):
        return value
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


def check_in_range(
    value,
    *,
    name: str = "value",
    low: float = -np.inf,
    high: float = np.inf,
    inclusive: bool = True,
) -> float:
    """Validate that a scalar lies in ``[low, high]`` (or ``(low, high)``)."""
    # Fast path for a ``float`` already in range; the same comparison as
    # below, minus the ``numbers.Real`` ABC check and the ``float()`` call.
    if type(value) is float and (
        low <= value <= high if inclusive else low < value < high
    ):
        return value
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


def check_confidence(value, *, name: str = "confidence") -> float:
    """Validate a probability-like level lying strictly in ``(0, 1)``.

    Used for confidence levels and event probabilities in the statistical
    audit harness, where the degenerate endpoints (a 0%- or 100%-confident
    statement) make the certified bounds meaningless.
    """
    value = check_in_range(value, name=name, low=0.0, high=1.0, inclusive=False)
    return value


def check_probability_vector(value, *, name: str = "probabilities") -> np.ndarray:
    """Validate a 1-D nonnegative vector summing to one.

    Returns the validated vector renormalized exactly (dividing by its sum)
    so downstream exact computations do not accumulate the input's rounding
    slack.
    """
    arr = check_array(value, name=name, ndim=1)
    if np.any(arr < 0):
        raise ValidationError(f"{name} must be nonnegative")
    total = float(arr.sum())
    if not abs(total - 1.0) <= PROBABILITY_SLACK:
        raise NotNormalizedError(
            f"{name} must sum to 1 (got {total:.12g})"
        )
    return arr / total


def check_row_stochastic(matrix: np.ndarray, *, name: str = "row") -> np.ndarray:
    """Validate every row of a 2-D float matrix as a probability vector.

    One vectorized pass replaces a :func:`check_probability_vector` call
    per row; a row it flags is handed to :func:`check_probability_vector`,
    so the first failing row raises exactly what that call raises. The
    row totals are summed over a C-contiguous copy, which adds each row in
    the same order as the 1-D sum of that row. A NaN or ±inf entry makes
    its row's total non-finite, so it is flagged too. Returns ``matrix``
    unchanged (not renormalized).
    """
    rows = np.ascontiguousarray(matrix)
    if rows.shape[1] == 0:
        flagged = np.ones(rows.shape[0], dtype=bool)
    else:
        # ``inf + -inf`` in a total is flagged, not warned about.
        with np.errstate(invalid="ignore"):
            totals = rows.sum(axis=1)
        flagged = ~(np.abs(totals - 1.0) <= PROBABILITY_SLACK)
        flagged |= (rows < 0).any(axis=1)
    for index in np.flatnonzero(flagged):
        check_probability_vector(rows[index], name=name)
    return matrix
