"""Locally-private estimators, minimax-rate predictions, and DPI checks.

The statistical side of the DJW story: given n clients who each
privatize their own record, how much worse are the classical estimators,
and why? Three ingredients:

* estimators — :func:`locally_private_mean` (average the unbiased
  mechanism outputs), :func:`central_private_mean` (the trusted-curator
  baseline: one Gamma-norm perturbation of the sample mean), and
  :func:`locally_private_median` (one-pass stochastic subgradient
  descent on the absolute loss with 1-bit privatized gradient signs);
* rate predictions — :func:`local_minimax_rate` /
  :func:`central_private_rate` / :func:`nonprivate_rate` give the
  order-level mean-squared-error scalings whose *ratios* Experiment E18
  measures (local pays ``d/ε²`` over non-private; central only
  ``d²/(nε²)`` extra, which vanishes at fixed ε as n grows);
* the information-theoretic cause — :func:`dpi_report` numerically
  verifies DJW Theorem 1 on a discrete local channel: KL divergence
  between any two privatized input laws contracts, and is bounded by
  ``4(e^ε-1)²·TV²`` of the raw laws, which is exactly why no estimator
  can beat the local rates.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from repro.exceptions import ValidationError
from repro.information.divergences import kl_divergence, total_variation
from repro.local_privacy.mechanisms import LInfSamplingMechanism
from repro.mechanisms.vector import VectorLaplaceMechanism
from repro.privacy.local import LocalMechanism
from repro.utils.validation import (
    check_positive,
    check_probability_vector,
    check_random_state,
    check_row_stochastic,
)


def locally_private_mean(records, mechanism, random_state=None) -> np.ndarray:
    """Mean estimate from per-record privatized reports.

    Every record passes once through the local mechanism (so the
    estimate is ε-LDP per record by construction); the unbiased reports
    are averaged. With the DJW sampling mechanisms the MSE is
    ``≍ d/(nε²)`` — compare :func:`central_private_mean`.

    Parameters
    ----------
    records:
        ``(n, d)`` array of client records in the mechanism's domain.
    mechanism:
        A :class:`~repro.privacy.local.LocalMechanism` whose outputs are
        unbiased vector estimates of its inputs.
    random_state:
        Seed or :class:`numpy.random.Generator` for the batch.
    """
    if not isinstance(mechanism, LocalMechanism):
        raise ValidationError("mechanism must be a LocalMechanism")
    reports = mechanism.privatize_many(records, random_state=random_state)
    return np.asarray(reports, dtype=float).mean(axis=0)


def central_private_mean(records, epsilon: float, random_state=None) -> np.ndarray:
    """Trusted-curator mean: one Gamma-norm perturbation of the average.

    The sample mean of n records with ‖x‖₂ ≤ 1 has L2 sensitivity
    ``2/n`` under substitution, so a single
    :class:`~repro.mechanisms.vector.VectorLaplaceMechanism` release is
    ε-DP with MSE ``≍ d²/(n²ε²) + (sampling variance)`` — the baseline
    the local model degrades from.

    Parameters
    ----------
    records:
        ``(n, d)`` array of records with ‖x‖₂ ≤ 1.
    epsilon:
        Central privacy parameter for the single release.
    random_state:
        Seed or :class:`numpy.random.Generator` for the noise draw.
    """
    epsilon = check_positive(epsilon, name="epsilon")
    arr = np.asarray(records, dtype=float)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise ValidationError("records must be a non-empty (n, d) array")
    norms = np.sqrt((arr * arr).sum(axis=1))
    if np.any(norms > 1.0 + 1e-9):
        raise ValidationError("central_private_mean requires ‖x‖₂ ≤ 1")
    n, d = arr.shape
    mechanism = VectorLaplaceMechanism(
        lambda data: np.asarray(data, dtype=float).mean(axis=0),
        d,
        2.0 / n,
        epsilon,
    )
    return mechanism.release(arr, random_state=random_state)


def locally_private_median(
    records,
    epsilon: float,
    *,
    lower: float = -1.0,
    upper: float = 1.0,
    random_state=None,
) -> float:
    """One-pass locally-private median via privatized subgradient signs.

    DJW's median protocol: stochastic subgradient descent on the
    absolute loss ``E|θ - X|`` where each client reports only the *sign*
    of their subgradient ``sign(θ_t - x_t)``, privatized by the one-bit
    sampling mechanism (``LInfSamplingMechanism(dimension=1)``, i.e.
    binary randomized response rescaled to stay unbiased). Step sizes
    ``∝ 1/√t`` with iterate averaging give the optimal
    ``O(1/√(n·min(1, ε²)))`` excess-risk rate.

    Parameters
    ----------
    records:
        One-dimensional array of client values inside
        ``[lower, upper]``.
    epsilon:
        Per-record local privacy parameter.
    lower:
        Left end of the (public, data-independent) value range.
    upper:
        Right end of the value range; must exceed ``lower``.
    random_state:
        Seed or :class:`numpy.random.Generator` for the privatization.
    """
    epsilon = check_positive(epsilon, name="epsilon")
    values = np.asarray(records, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ValidationError("records must be a non-empty 1-d array")
    if not np.isfinite(values).all():
        raise ValidationError("records must be finite")
    for bound in (lower, upper):
        if not isinstance(bound, numbers.Real):
            raise ValidationError(
                f"lower and upper must be real numbers, got {bound!r}"
            )
    lower, upper = float(lower), float(upper)
    if not (math.isfinite(lower) and math.isfinite(upper) and upper > lower):
        raise ValidationError("need finite bounds with upper > lower")
    if np.any(values < lower) or np.any(values > upper):
        raise ValidationError("records must lie inside [lower, upper]")
    rng = check_random_state(random_state)
    center = (upper + lower) / 2.0
    halfwidth = (upper - lower) / 2.0
    scaled = ((values - center) / halfwidth).tolist()
    n = len(scaled)
    mechanism = LInfSamplingMechanism(1, epsilon)
    # One (n, 4) uniform block is stream-identical to n ``privatize``
    # calls (the ``privatize_many`` contract). The gradient of step t is
    # +1 or -1, so one kernel pass per sign gives every report it can
    # privatize to, and every move ``step_t * report`` it can make.
    u = rng.uniform(size=(n, mechanism._draw_width))
    # Gradients are ±1 and privatized reports ±B; the classic projected
    # SGD step scale for a radius-1 domain is 1/(B·√t).
    steps = 1.0 / mechanism.scale / np.sqrt(np.arange(1, n + 1))
    moves_up = (steps * mechanism._kernel(np.ones((n, 1)), u)[:, 0]).tolist()
    moves_down = (
        steps * mechanism._kernel(np.full((n, 1), -1.0), u)[:, 0]
    ).tolist()
    theta = 0.0
    average = 0.0
    for t, (value, up, down) in enumerate(
        zip(scaled, moves_up, moves_down), start=1
    ):
        theta -= up if theta >= value else down
        # Projection onto [-1, 1]; branches cost less than min(max()).
        if theta > 1.0:
            theta = 1.0
        elif theta < -1.0:
            theta = -1.0
        average += (theta - average) / t
    return center + halfwidth * average


def nonprivate_rate(dimension: int, n: int) -> float:
    """Order-level MSE of the sample mean for records with ‖x‖₂ ≤ 1.

    ``E‖x̄ - μ‖² ≤ 1/n`` since the per-record variance is bounded by the
    second moment ``E‖x‖² ≤ 1`` (the dimension appears only through the
    norm constraint).

    Parameters
    ----------
    dimension:
        Ambient dimension d (unused beyond validation — the ℓ2 ball's
        total variance is dimension-free).
    n:
        Sample size.
    """
    _check_rate_args(dimension, n)
    return 1.0 / n


def central_private_rate(dimension: int, n: int, epsilon: float) -> float:
    """Order-level MSE of the trusted-curator private mean.

    Sampling variance plus the Gamma-norm noise of a sensitivity-``2/n``
    release: ``1/n + 4d²/(n²ε²)``. At fixed ε the privacy term decays
    quadratically in n — central DP is asymptotically free.

    Parameters
    ----------
    dimension:
        Ambient dimension d.
    n:
        Sample size.
    epsilon:
        Central privacy parameter.
    """
    _check_rate_args(dimension, n)
    epsilon = check_positive(epsilon, name="epsilon")
    return 1.0 / n + 4.0 * dimension**2 / (n**2 * epsilon**2)


def local_minimax_rate(dimension: int, n: int, epsilon: float) -> float:
    """DJW order-level minimax MSE for locally-private ℓ2 mean estimation.

    ``min(1, d/(n·min(ε, ε²)))`` — the privacy penalty multiplies the
    *statistical* rate by ``d/ε²`` (small ε) instead of adding a
    lower-order term: locality costs a dimension-dependent constant
    factor forever, which is the rate gap Experiment E18 exhibits.

    Parameters
    ----------
    dimension:
        Ambient dimension d.
    n:
        Sample size.
    epsilon:
        Per-record local privacy parameter.
    """
    _check_rate_args(dimension, n)
    epsilon = check_positive(epsilon, name="epsilon")
    return min(1.0, dimension / (n * min(epsilon, epsilon**2)))


def _check_rate_args(dimension: int, n: int) -> None:
    if int(dimension) < 1 or int(n) < 1:
        raise ValidationError("dimension and n must be >= 1")


def dpi_report(
    channel_matrix, p, q, epsilon: float, *, tolerance: float = 1e-9
) -> dict:
    """Numerically verify DJW Theorem 1 through a discrete local channel.

    For an ε-LDP channel K and any two input laws P, Q the theorem
    bounds the symmetrized output divergence:

    ``KL(PK ‖ QK) + KL(QK ‖ PK) ≤ 4(e^ε - 1)² · TV(P, Q)²``

    and the ordinary data-processing inequality gives contraction,
    ``KL(PK ‖ QK) ≤ KL(P ‖ Q)`` and ``TV(PK, QK) ≤ TV(P, Q)``. This
    helper computes every side numerically so experiments can assert the
    inequalities configuration by configuration.

    Parameters
    ----------
    channel_matrix:
        Row-stochastic ``(k, m)`` matrix of the local channel, e.g.
        ``KRandomizedResponse.channel_matrix()``.
    p:
        First input distribution over the k channel inputs.
    q:
        Second input distribution over the k channel inputs.
    epsilon:
        The channel's claimed per-record guarantee (drives the bound).
    tolerance:
        Additive slack for the boolean verdicts.

    Returns
    -------
    dict
        Input/output KL and TV values, the DJW bound, and the boolean
        verdicts ``kl_contracts``, ``tv_contracts``, ``bound_holds``.
    """
    epsilon = check_positive(epsilon, name="epsilon")
    matrix = np.asarray(channel_matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValidationError("channel_matrix must be 2-dimensional")
    check_row_stochastic(matrix, name="channel row")
    p = check_probability_vector(p, name="p")
    q = check_probability_vector(q, name="q")
    if p.shape[0] != matrix.shape[0] or q.shape[0] != matrix.shape[0]:
        raise ValidationError(
            "input distributions must match the channel's input count"
        )
    output_p = p @ matrix
    output_q = q @ matrix
    input_kl = kl_divergence(p, q)
    output_kl = kl_divergence(output_p, output_q)
    input_tv = total_variation(p, q)
    output_tv = total_variation(output_p, output_q)
    symmetrized = output_kl + kl_divergence(output_q, output_p)
    bound = 4.0 * (np.expm1(epsilon)) ** 2 * input_tv**2
    return {
        "input_kl": float(input_kl),
        "output_kl": float(output_kl),
        "input_tv": float(input_tv),
        "output_tv": float(output_tv),
        "symmetrized_output_kl": float(symmetrized),
        "djw_bound": float(bound),
        "kl_contracts": bool(output_kl <= input_kl + tolerance),
        "tv_contracts": bool(output_tv <= input_tv + tolerance),
        "bound_holds": bool(symmetrized <= bound + tolerance),
    }
