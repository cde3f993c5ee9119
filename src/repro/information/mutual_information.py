"""Mutual information: exact on finite joints, estimated from samples.

Three routes, cross-validated in the test suite:

* :func:`mutual_information_from_joint` — exact ``I(X;Y)`` from a joint PMF
  matrix (used for every finite-universe experiment, E1/E5/E6);
* :func:`mutual_information_histogram` — plug-in estimator from paired
  samples via (optionally binned) empirical joint;
* :func:`mutual_information_ksg` — the Kraskov–Stögbauer–Grassberger
  k-nearest-neighbour estimator for continuous data, built on
  :class:`scipy.spatial.cKDTree`.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import digamma

from repro.exceptions import ValidationError
from repro.utils.validation import PROBABILITY_SLACK, check_random_state


def mutual_information_from_joint(joint) -> float:
    """Exact ``I(X;Y)`` in nats from a joint PMF matrix (X rows, Y columns).

    Computed as ``H(X) + H(Y) - H(X,Y)``, which is exact and never negative
    beyond float rounding; tiny negative rounding residue is clipped to 0.
    """
    joint = np.asarray(joint, dtype=float)
    if joint.ndim != 2:
        raise ValidationError("joint must be a 2-D matrix")
    if np.any(joint < 0):
        raise ValidationError("joint must be nonnegative")
    with np.errstate(divide="ignore", invalid="ignore"):
        return _mutual_information(joint)


def _mutual_information(joint: np.ndarray) -> float:
    """Kernel of :func:`mutual_information_from_joint`.

    ``joint`` must be a 2-D float matrix known to be nonnegative, and the
    caller must ignore ``divide`` and ``invalid`` in ``np.errstate`` (the
    ``0 log 0`` terms compute ``log 0`` and ``0 * -inf`` before they are
    masked). Checks the total, renormalizes by it and takes the three
    entropies.
    """
    total = float(joint.sum())
    if not abs(total - 1.0) <= PROBABILITY_SLACK:
        raise ValidationError(f"joint must sum to 1 (got {total:.12g})")
    joint = joint / total
    h_x = -_xlogx_sum(joint.sum(axis=1))
    h_y = -_xlogx_sum(joint.sum(axis=0))
    h_xy = -_xlogx_sum(joint)
    return float(max(h_x + h_y - h_xy, 0.0))


def _xlogx_sum(values: np.ndarray):
    """``xlogx(values).sum()``, with the ``0 log 0`` terms exact zeros."""
    return np.where(values > 0, values * np.log(values), 0.0).sum()


def mutual_information_histogram(
    x_samples, y_samples, *, bins: int | None = None
) -> float:
    """Plug-in MI estimate from paired samples.

    Parameters
    ----------
    x_samples, y_samples:
        Paired observations. If ``bins`` is None, values are treated as
        discrete labels; otherwise both variables are binned into ``bins``
        equal-width cells first (for continuous data).
    """
    x = np.asarray(x_samples)
    y = np.asarray(y_samples)
    if x.shape[0] != y.shape[0] or x.shape[0] == 0:
        raise ValidationError("x and y must be equal-length nonempty samples")

    if bins is not None:
        x = _discretize(np.asarray(x, dtype=float), bins)
        y = _discretize(np.asarray(y, dtype=float), bins)

    x_values, x_codes = np.unique(x, return_inverse=True)
    y_values, y_codes = np.unique(y, return_inverse=True)
    joint = np.zeros((x_values.size, y_values.size))
    np.add.at(joint, (x_codes, y_codes), 1.0)
    joint /= joint.sum()
    return mutual_information_from_joint(joint)


def _discretize(values: np.ndarray, bins: int) -> np.ndarray:
    if bins < 1:
        raise ValidationError("bins must be >= 1")
    lo, hi = values.min(), values.max()
    if lo == hi:
        return np.zeros_like(values, dtype=int)
    edges = np.linspace(lo, hi, bins + 1)
    return np.clip(np.searchsorted(edges, values, side="right") - 1, 0, bins - 1)


def mutual_information_ksg(
    x_samples, y_samples, *, k: int = 3, random_state=0
) -> float:
    """Kraskov–Stögbauer–Grassberger estimator (algorithm 1) in nats.

    Suitable for continuous (or mixed-scale) data; consistent as the sample
    grows. Result is clipped at zero since MI is nonnegative.

    Parameters
    ----------
    k:
        Number of neighbours; small k → low bias, higher variance.
    random_state:
        Seed or Generator for the tie-breaking jitter; the fixed default
        keeps the estimate deterministic for a given sample.
    """
    x = np.asarray(x_samples, dtype=float)
    y = np.asarray(y_samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if y.ndim == 1:
        y = y[:, None]
    n = x.shape[0]
    if y.shape[0] != n or n == 0:
        raise ValidationError("x and y must be equal-length nonempty samples")
    if not 1 <= k < n:
        raise ValidationError("k must satisfy 1 <= k < n_samples")

    # Tiny jitter breaks ties that would otherwise make the Chebyshev
    # epsilon-ball counts degenerate on discrete-valued inputs.
    rng = check_random_state(random_state)
    x = x + 1e-10 * rng.standard_normal(x.shape)
    y = y + 1e-10 * rng.standard_normal(y.shape)

    joint = np.hstack([x, y])
    joint_tree = cKDTree(joint)
    # Distance to the k-th neighbour in the joint space (Chebyshev metric).
    distances, _ = joint_tree.query(joint, k=k + 1, p=np.inf)
    radii = distances[:, -1]

    x_tree = cKDTree(x)
    y_tree = cKDTree(y)
    n_x = np.array(
        [
            len(x_tree.query_ball_point(x[i], radii[i] - 1e-12, p=np.inf)) - 1
            for i in range(n)
        ]
    )
    n_y = np.array(
        [
            len(y_tree.query_ball_point(y[i], radii[i] - 1e-12, p=np.inf)) - 1
            for i in range(n)
        ]
    )
    estimate = (
        digamma(k)
        + digamma(n)
        - np.mean(digamma(n_x + 1) + digamma(n_y + 1))
    )
    return float(max(estimate, 0.0))
