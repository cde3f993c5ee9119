"""Divergences between finite distributions.

The paper uses the Kullback–Leibler divergence (in PAC-Bayes bounds and in
the mutual-information decomposition ``E_Z KL(π̂‖π) = I(Z;θ) + KL(E_Z π̂‖π)``)
and, implicitly through the DP definition, the *max divergence*
``D_∞(P‖Q) = max_S log P(S)/Q(S)`` — a mechanism is ε-DP iff the max
divergence between its output laws on any neighbouring inputs is ≤ ε.
"""

from __future__ import annotations

import numpy as np

from repro.distributions.discrete import DiscreteDistribution
from repro.exceptions import ValidationError
from repro.utils.validation import check_in_range, check_positive, check_probability_vector


def _pair(p_dist, q_dist) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(p_dist, DiscreteDistribution) and isinstance(
        q_dist, DiscreteDistribution
    ):
        p_dist.require_same_support(q_dist)
        return p_dist.probabilities, q_dist.probabilities
    p = check_probability_vector(p_dist, name="p")
    q = check_probability_vector(q_dist, name="q")
    if p.shape != q.shape:
        raise ValidationError("p and q must have the same length")
    return p, q


def _kept_row_sums(terms: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``terms[i][keep[i]].sum()`` for every row ``i``, bit for bit: numpy
    sums a C-contiguous row pairwise, so zero-filling dropped entries would
    regroup the kept ones. Rows are summed per distinct ``keep`` pattern."""
    if keep.all():
        return terms.sum(axis=-1)
    if terms.ndim == 1:
        return terms[keep].sum()
    patterns, which = np.unique(keep, axis=0, return_inverse=True)
    sums = np.empty(len(terms))
    for index, pattern in enumerate(patterns):
        rows = which.ravel() == index
        sums[rows] = np.ascontiguousarray(terms[rows][:, pattern]).sum(axis=-1)
    return sums


def _kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise ``KL(p ‖ q)`` over the atoms with ``p > 0``; ``inf`` if p ⋪ q
    (a kept atom with q = 0 has the term +inf, and no kept term is -inf)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return _kept_row_sums(p * (np.log(p) - np.log(q)), p > 0)


def _log_ratio_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per-atom ``log p - log q``: -inf where p = 0, +inf where p > 0 = q."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p > 0, np.log(p) - np.log(q), -np.inf)


def _max_divergence_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise ``D_∞(p ‖ q) = max log(p_i / q_i)`` over atoms p_i > 0."""
    return _log_ratio_rows(p, q).max(axis=-1)


def _renyi_rows(p: np.ndarray, q: np.ndarray, alpha: float) -> np.ndarray:
    """Row-wise Rényi divergence of order ``alpha > 0`` (α ≈ 1: KL; ∞: max)."""
    if np.isinf(alpha):
        return _max_divergence_rows(p, q)
    if np.isclose(alpha, 1.0):
        return _kl_rows(p, q)
    keep = p > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        log_terms = np.where(keep, alpha * np.log(p) + (1 - alpha) * np.log(q), -np.inf)
        peak = log_terms.max(axis=-1, keepdims=True)
        totals = _kept_row_sums(np.exp(log_terms - peak), keep)
        values = (peak[..., 0] + np.log(totals)) / (alpha - 1.0)
    return np.where((keep & (q == 0)).any(axis=-1), np.inf, values)


def _bernoulli(p: float) -> np.ndarray:
    """``[p, 1-p]`` renormalised exactly as ``check_probability_vector`` does.

    For ``p`` in ``[0, 1]`` the pair is nonnegative and sums to one within
    an ulp, so the range check on ``p`` stands in for the vector checks.
    """
    pair = np.array([p, 1 - p])
    return pair / float(pair.sum())


def kl_divergence(p_dist, q_dist) -> float:
    """``KL(p ‖ q) = Σ p log(p/q)`` in nats; ``inf`` if p ⋪ q."""
    return float(_kl_rows(*_pair(p_dist, q_dist)))


def binary_kl_inverse(p: float, budget: float, *, tol: float = 1e-12) -> float:
    """Largest ``q ≥ p`` with ``kl(p ‖ q) ≤ budget`` (Seeger bound inversion).

    Solved by bisection; ``kl(p‖·)`` is increasing on ``[p, 1]``.
    """
    p = check_in_range(p, name="p", low=0.0, high=1.0)
    budget = check_positive(budget, name="budget", strict=False)
    if budget == 0:
        return p
    lo, hi = p, 1.0
    p_pair = _bernoulli(p)
    if _kl_rows(p_pair, _bernoulli(1.0)) <= budget:
        return 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _kl_rows(p_pair, _bernoulli(mid)) <= budget:
            lo = mid
        else:
            hi = mid
    return lo


def total_variation(p_dist, q_dist) -> float:
    """Total variation distance ``½ Σ |p - q|``."""
    p, q = _pair(p_dist, q_dist)
    return float(0.5 * np.abs(p - q).sum())


def renyi_divergence(p_dist, q_dist, alpha: float) -> float:
    """Rényi divergence of order ``alpha`` (limits: α→1 gives KL, α→∞ max)."""
    p, q = _pair(p_dist, q_dist)
    alpha = float(alpha)
    if alpha != np.inf:
        alpha = check_positive(alpha, name="alpha")
    return float(_renyi_rows(p, q, alpha))


def max_divergence(p_dist, q_dist) -> float:
    """Max divergence ``D_∞(p‖q) = max_i log(p_i / q_i)`` over atoms p_i > 0.

    For discrete mechanisms this equals ``max_S log P(S)/Q(S)`` over all
    events S, so a mechanism is ε-DP iff max divergence ≤ ε for every
    neighbouring input pair — this is the quantity the exact privacy
    auditor computes.
    """
    return float(_max_divergence_rows(*_pair(p_dist, q_dist)))


def hockey_stick_divergence(p_dist, q_dist, epsilon: float) -> float:
    """Hockey-stick divergence ``max(0, Σ (p - e^ε q)_+)``.

    A mechanism satisfies (ε, δ)-DP on a neighbouring pair iff the
    hockey-stick divergence between the output laws is ≤ δ in both
    directions.
    """
    p, q = _pair(p_dist, q_dist)
    epsilon = check_positive(epsilon, name="epsilon", strict=False)
    return float(np.clip(p - np.exp(epsilon) * q, 0.0, None).sum())


def kl_decomposition(posteriors, weights, prior) -> dict:
    """Decompose ``E_Z KL(π̂_Z ‖ π)`` as ``I(Z;θ) + KL(E_Z π̂ ‖ π)``.

    This is the identity the paper quotes from Catoni (Section 4): the
    expected KL of sample-dependent posteriors to a fixed prior splits into
    the mutual information between sample and parameter plus the divergence
    of the marginal posterior from the prior. The additive second term
    vanishes iff the prior equals the marginal ``E_Z π̂`` — the
    "bound-optimal prior".

    Parameters
    ----------
    posteriors:
        Sequence of :class:`DiscreteDistribution` over the parameter space,
        one per sample value ``z`` (all on the same support).
    weights:
        Probability of each sample value (the data-generating law on Z).
    prior:
        Fixed prior :class:`DiscreteDistribution` on the same support.

    Returns
    -------
    dict with keys ``expected_kl``, ``mutual_information``,
    ``marginal_kl`` and ``marginal`` satisfying
    ``expected_kl = mutual_information + marginal_kl`` exactly.
    """
    weights = check_probability_vector(weights, name="weights")
    if len(posteriors) != weights.shape[0]:
        raise ValidationError("need one posterior per weight")
    for post in posteriors:
        prior.require_same_support(post)

    stacked = np.stack([post.probabilities for post in posteriors])
    marginal = DiscreteDistribution(prior.support, weights @ stacked)
    expected_kl = float(sum(weights * _kl_rows(stacked, prior.probabilities)))
    mutual_information = float(sum(weights * _kl_rows(stacked, marginal.probabilities)))
    marginal_kl = kl_divergence(marginal, prior)
    return {
        "expected_kl": expected_kl,
        "mutual_information": mutual_information,
        "marginal_kl": marginal_kl,
        "marginal": marginal,
    }
