"""Blahut–Arimoto algorithms.

Two classic alternating-minimization procedures:

* :func:`channel_capacity` — maximizes ``I(X;Y)`` over input laws for a
  fixed channel;
* :func:`rate_distortion` — minimizes the Lagrangian
  ``I(X;Y) + beta * E[d(X,Y)]`` over channels for a fixed source.

The rate–distortion solver is the computational engine behind Theorem 4.2
of the paper: take the distortion ``d(Ẑ, θ) = R̂_Ẑ(θ)`` (empirical risk of
predictor θ on sample Ẑ) and ``beta = ε``; the optimal channel at the fixed
point is exactly the Gibbs kernel ``K(θ|Ẑ) ∝ q(θ) exp(-ε R̂_Ẑ(θ))`` with the
prior ``q`` equal to the output marginal ``E_Z π̂`` — the bound-optimal prior
the paper discusses. :mod:`repro.core.tradeoff` wraps this with the
learning-specific vocabulary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConvergenceError, ValidationError
from repro.information.mutual_information import (
    _mutual_information,
    mutual_information_from_joint,
)
from repro.observability import tracer as _trace
from repro.utils.numerics import logsumexp, stable_log
from repro.utils.validation import (
    check_positive,
    check_probability_vector,
    check_row_stochastic,
)


@dataclass
class BlahutArimotoResult:
    """Outcome of an alternating-minimization run.

    Attributes
    ----------
    value:
        Final objective (capacity in nats, or the rate–distortion
        Lagrangian value).
    channel_matrix:
        Row-stochastic conditional matrix at termination.
    input_distribution / output_distribution:
        The source law (fixed for rate–distortion, optimized for capacity)
        and the output marginal.
    rate:
        Mutual information at termination, nats.
    distortion:
        Expected distortion (rate–distortion only; 0.0 for capacity).
    iterations:
        Iterations executed.
    converged:
        Whether the stopping tolerance was reached within the budget.
        False both when the iteration budget ran out *and* when the
        objective moved the wrong way (see ``monotone``).
    final_gap:
        The last objective decrement observed (capacity: the certified
        upper−lower bound gap). Negative means the objective *increased*
        on the final step — float noise near a degenerate fixed point.
    monotone:
        Whether every observed step decreased the objective (capacity:
        always True). A non-monotone run terminated on a beyond-tolerance
        increase and is reported ``converged=False``.
    """

    value: float
    channel_matrix: np.ndarray
    input_distribution: np.ndarray
    output_distribution: np.ndarray
    rate: float
    distortion: float
    iterations: int
    converged: bool
    final_gap: float = 0.0
    monotone: bool = True


def channel_capacity(
    channel_matrix,
    *,
    tol: float = 1e-10,
    max_iterations: int = 10_000,
) -> BlahutArimotoResult:
    """Capacity ``max_p I(X;Y)`` of a discrete channel by Blahut–Arimoto.

    Parameters
    ----------
    channel_matrix:
        Row-stochastic matrix ``P(y|x)``.
    tol:
        Stop when the capacity upper and lower bounds are within ``tol``
        (the classical Arimoto bounds certify the gap).
    """
    matrix = np.asarray(channel_matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValidationError("channel_matrix must be 2-D")
    if matrix.shape[0] == 0:
        raise ValidationError("channel_matrix must have at least one row")
    check_row_stochastic(matrix, name="channel row")
    n_inputs = matrix.shape[0]

    positive = matrix > 0
    p = np.full(n_inputs, 1.0 / n_inputs)
    converged = False
    iterations = 0
    gap = np.inf
    # One errstate for the whole loop: log 0 = -inf is expected, and the
    # NaN terms a zero entry yields (0 · -inf) are masked out.
    with np.errstate(divide="ignore", invalid="ignore"):
        log_matrix = np.log(matrix)
        for iterations in range(1, max_iterations + 1):
            output = p @ matrix
            # D(row_x || output marginal) for every input x.
            contrib = matrix * (log_matrix - np.log(output)[None, :])
            divergences = np.where(positive, contrib, 0.0).sum(axis=1)
            upper = float(divergences.max())
            lower = float(p @ divergences)
            gap = upper - lower
            if gap < tol:
                converged = True
                break
            log_p = np.log(p) + divergences
            p = np.exp(log_p - _logsumexp(log_p))

    tracer = _trace.current()
    if tracer is not None:
        tracer.observe("blahut_arimoto.iterations", iterations)

    joint = p[:, None] * matrix
    rate = mutual_information_from_joint(joint)
    return BlahutArimotoResult(
        value=rate,
        channel_matrix=matrix,
        input_distribution=p,
        output_distribution=p @ matrix,
        rate=rate,
        distortion=0.0,
        iterations=iterations,
        converged=converged,
        final_gap=gap,
        monotone=True,
    )


def rate_distortion(
    source,
    distortion_matrix,
    beta: float,
    *,
    tol: float = 1e-12,
    max_iterations: int = 20_000,
    initial_output=None,
    raise_on_failure: bool = False,
) -> BlahutArimotoResult:
    """Minimize ``I(X;Y) + beta * E[d(X,Y)]`` over channels ``P(y|x)``.

    Alternates the two closed-form half-steps:

    1. given output marginal ``q``, the optimal channel is the Gibbs kernel
       ``K(y|x) ∝ q(y) * exp(-beta * d(x, y))``;
    2. given the channel, the optimal ``q`` is the output marginal of the
       joint.

    Each half-step cannot increase the objective, so the Lagrangian value
    decreases monotonically to the fixed point.

    Parameters
    ----------
    source:
        Probability vector of the source ``X`` (for the paper: the law of
        the sample ``Ẑ``).
    distortion_matrix:
        Matrix ``d[x, y] >= 0`` (for the paper: empirical risk
        ``R̂_Ẑ(θ)`` of predictor y on sample x).
    beta:
        Lagrange multiplier; the paper's privacy parameter ε.
    initial_output:
        Starting output marginal (defaults to uniform). Must give positive
        mass everywhere or atoms can never be revived.
    raise_on_failure:
        If true, raise :class:`ConvergenceError` instead of returning a
        result flagged ``converged=False``.
    """
    p = check_probability_vector(source, name="source")
    d = np.asarray(distortion_matrix, dtype=float)
    if d.ndim != 2 or d.shape[0] != p.shape[0]:
        raise ValidationError(
            "distortion_matrix must be 2-D with one row per source symbol"
        )
    if d.shape[1] == 0:
        raise ValidationError("distortion_matrix must have at least one column")
    if np.any(d < 0) or not np.all(np.isfinite(d)):
        raise ValidationError("distortion entries must be finite and >= 0")
    beta = check_positive(beta, name="beta")

    n_outputs = d.shape[1]
    if initial_output is None:
        q = np.full(n_outputs, 1.0 / n_outputs)
    else:
        q = check_probability_vector(initial_output, name="initial_output")
        if q.shape[0] != n_outputs:
            raise ValidationError("initial_output has the wrong length")
        if np.any(q == 0):
            raise ValidationError(
                "initial_output must be strictly positive everywhere"
            )
    if max_iterations < 1:
        # No iteration would leave the channel uninitialized memory.
        raise ValidationError("max_iterations must be >= 1")

    previous_value = np.inf
    converged = False
    monotone = True
    iterations = 0
    gap = np.inf
    scaled = beta * d
    column = p[:, None]
    # One errstate for the whole loop, as in ``channel_capacity``; the
    # per-iteration joint is p ⊗ exp(·) ≥ 0, so the MI kernel's own sum
    # check is the only one of its checks that can fire.
    with np.errstate(divide="ignore", invalid="ignore"):
        for iterations in range(1, max_iterations + 1):
            # Half-step 1: optimal channel for the current output marginal.
            log_weights = np.log(q)[None, :] - scaled
            channel = np.exp(log_weights - _logsumexp_rows(log_weights))
            # Half-step 2: optimal output marginal for the current channel.
            q = p @ channel

            joint = column * channel
            rate = _mutual_information(joint)
            distortion = float((joint * d).sum())
            value = rate + beta * distortion
            gap = (
                previous_value - value
                if math.isfinite(previous_value)
                else math.inf
            )
            if gap < -tol:
                # The objective went UP by more than the tolerance. Each
                # exact half-step cannot increase the Lagrangian, so this
                # is float noise near a (near-)degenerate fixed point — not
                # a certified fixed point. Stop, but do not claim
                # convergence.
                monotone = False
                break
            if gap < tol:
                converged = True
                break
            previous_value = value

    tracer = _trace.current()
    if tracer is not None:
        tracer.observe("blahut_arimoto.iterations", iterations)

    if not converged and raise_on_failure:
        reason = (
            f"objective increased by {-gap:.3e} at iteration {iterations}"
            if not monotone
            else f"did not converge in {max_iterations} iterations"
        )
        raise ConvergenceError(f"rate_distortion: {reason}")

    joint = p[:, None] * channel
    rate = mutual_information_from_joint(joint)
    distortion = float((joint * d).sum())
    return BlahutArimotoResult(
        value=rate + beta * distortion,
        channel_matrix=channel,
        input_distribution=p,
        output_distribution=p @ channel,
        rate=rate,
        distortion=distortion,
        iterations=iterations,
        converged=converged,
        final_gap=float(gap) if np.isfinite(gap) else float("inf"),
        monotone=monotone,
    )


def _logsumexp(log_values: np.ndarray) -> float:
    """:func:`~repro.utils.numerics.logsumexp` of a non-empty 1-D array,
    minus its checks and ``errstate`` (the caller ignores ``divide``)."""
    peak = log_values.max()
    if not math.isfinite(peak):
        return float(peak)
    return float(peak + np.log(np.exp(log_values - peak).sum()))


def _logsumexp_rows(log_values: np.ndarray) -> np.ndarray:
    """``logsumexp(log_values, axis=1)[:, None]`` with the same arithmetic,
    minus its checks and ``errstate`` (the caller ignores ``divide``)."""
    peak = log_values.max(axis=1, keepdims=True)
    finite = np.isfinite(peak)
    safe_peak = np.where(finite, peak, 0.0)
    out = safe_peak + np.log(
        np.exp(log_values - safe_peak).sum(axis=1, keepdims=True)
    )
    return np.where(finite, out, peak)


def rate_distortion_free_energy(source, distortion_matrix, beta: float) -> float:
    """Closed-form optimum of the rate–distortion Lagrangian at the Gibbs
    fixed point *for a fixed reference marginal*: the variational identity

    ``min_K [ I + beta * E d ]  =  min_q  -E_x log E_{y~q} exp(-beta d(x,y))``

    evaluated at the converged marginal. Used as an independent check that
    the alternating minimization reached the true optimum (Experiment E5).
    """
    result = rate_distortion(source, distortion_matrix, beta)
    p = result.input_distribution
    log_q = stable_log(result.output_distribution)
    d = np.asarray(distortion_matrix, dtype=float)
    free_energies = -logsumexp(log_q[None, :] - beta * d, axis=1)
    return float(p @ free_energies)
