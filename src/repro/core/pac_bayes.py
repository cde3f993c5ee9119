"""PAC-Bayesian generalization bounds (Section 3 of the paper).

All bounds take a posterior π̂ and a prior π on a predictor space and hold,
with probability at least 1-δ over the draw of the size-n sample,
*simultaneously for every posterior*. Losses are assumed bounded in [0, 1]
(rescale otherwise).

* :func:`catoni_bound` — Theorem 3.1 (Catoni 2007): for fixed λ > 0,

    ``E_π̂ R ≤ Φ⁻¹( E_π̂ R̂ + (KL(π̂‖π) + ln(1/δ)) / λ )``

  where ``Φ(p) = (1 - e^{-λp/n})·n/λ`` — written out below without the
  helper. Minimizing it over π̂ (Lemma 3.2) yields the Gibbs posterior at
  temperature λ.
* :func:`mcallester_bound` — the classical square-root bound.
* :func:`seeger_bound` — the binary-KL (Langford–Seeger) bound, usually
  the tightest of the three.
* :func:`gibbs_oracle_bound` — Zhang's in-expectation oracle bound on the
  Gibbs estimator's true risk (the paper's reference 12).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distributions.discrete import DiscreteDistribution
from repro.exceptions import ValidationError
from repro.information.divergences import _kl_rows, binary_kl_inverse, kl_divergence
from repro.utils.numerics import logsumexp
from repro.utils.validation import (
    PROBABILITY_SLACK,
    check_in_range,
    check_positive,
    check_probability_vector,
)


def _check_common(empirical_risk: float, kl: float, n: int, delta: float):
    empirical_risk = check_in_range(
        empirical_risk, name="empirical_risk", low=0.0, high=1.0
    )
    kl = check_positive(kl, name="kl", strict=False)
    if n < 1:
        raise ValidationError("n must be >= 1")
    delta = check_in_range(delta, name="delta", low=0.0, high=1.0, inclusive=False)
    return empirical_risk, kl, int(n), delta


def catoni_bound(
    empirical_risk: float, kl: float, n: int, temperature: float, delta: float
) -> float:
    """Catoni's PAC-Bayes bound (the paper's Theorem 3.1) on ``E_π̂ R``.

    ``(1 - exp(-(λ/n)·E_π̂R̂ - (KL + ln(1/δ))/n)) / (1 - exp(-λ/n))``

    Parameters
    ----------
    empirical_risk:
        The Gibbs risk on the sample, ``E_π̂ R̂`` ∈ [0, 1].
    kl:
        ``KL(π̂ ‖ π)`` in nats.
    n:
        Sample size.
    temperature:
        Catoni's λ > 0 (must be chosen before seeing the data).
    delta:
        Confidence parameter.

    Returns a value that may exceed 1 (a vacuous but still valid bound).
    """
    empirical_risk, kl, n, delta = _check_common(empirical_risk, kl, n, delta)
    temperature = check_positive(temperature, name="temperature")
    rate = temperature / n
    exponent = -rate * empirical_risk - (kl + np.log(1.0 / delta)) / n
    return float((1.0 - np.exp(exponent)) / (1.0 - np.exp(-rate)))


def catoni_bound_in_expectation(
    expected_empirical_risk: float, expected_kl: float, n: int, temperature: float
) -> float:
    """The in-expectation form (Equation 1 of the paper): a bound on
    ``E_Ẑ E_π̂ R`` with the δ term dropped and risks/KL averaged over the
    sample draw. Combined with the decomposition
    ``E_Ẑ KL(π̂‖π) = I(Ẑ;θ) + KL(E_Ẑπ̂ ‖ π)`` this is the bridge from
    PAC-Bayes to the mutual-information view of Section 4.
    """
    expected_empirical_risk = check_in_range(
        expected_empirical_risk, name="expected_empirical_risk", low=0.0, high=1.0
    )
    expected_kl = check_positive(expected_kl, name="expected_kl", strict=False)
    if n < 1:
        raise ValidationError("n must be >= 1")
    temperature = check_positive(temperature, name="temperature")
    rate = temperature / n
    exponent = -rate * expected_empirical_risk - expected_kl / n
    return float((1.0 - np.exp(exponent)) / (1.0 - np.exp(-rate)))


def mcallester_bound(empirical_risk: float, kl: float, n: int, delta: float) -> float:
    """McAllester's bound: ``E R̂ + sqrt((KL + ln(2√n/δ)) / (2n))``."""
    empirical_risk, kl, n, delta = _check_common(empirical_risk, kl, n, delta)
    complexity = (kl + np.log(2.0 * np.sqrt(n) / delta)) / (2.0 * n)
    return float(empirical_risk + np.sqrt(complexity))


def seeger_bound(empirical_risk: float, kl: float, n: int, delta: float) -> float:
    """Langford–Seeger bound: invert ``kl(E R̂ ‖ ·) ≤ (KL + ln(2√n/δ))/n``."""
    empirical_risk, kl, n, delta = _check_common(empirical_risk, kl, n, delta)
    budget = (kl + np.log(2.0 * np.sqrt(n) / delta)) / n
    return binary_kl_inverse(empirical_risk, budget)


def catoni_objective(
    posterior: DiscreteDistribution,
    prior: DiscreteDistribution,
    empirical_risks: np.ndarray,
    temperature: float,
) -> float:
    """The quantity Catoni's bound is monotone in:
    ``λ·E_π̂ R̂ + KL(π̂ ‖ π)``. Lemma 3.2's Gibbs posterior minimizes it."""
    prior.require_same_support(posterior)
    risks = np.asarray(empirical_risks, dtype=float)
    if risks.shape[0] != len(posterior):
        raise ValidationError("empirical_risks must match the support size")
    temperature = check_positive(temperature, name="temperature")
    expected_risk = float(risks @ posterior.probabilities)
    return temperature * expected_risk + kl_divergence(posterior, prior)


def gibbs_minimizer(
    prior: DiscreteDistribution, empirical_risks, temperature: float
) -> DiscreteDistribution:
    """The closed-form minimizer of :func:`catoni_objective` (Lemma 3.2)."""
    risks = np.asarray(empirical_risks, dtype=float)
    temperature = check_positive(temperature, name="temperature")
    return prior.tilt(-temperature * risks)


def optimal_objective_value(
    prior: DiscreteDistribution, empirical_risks, temperature: float
) -> float:
    """Closed-form minimum: ``-log E_π exp(-λ R̂)`` (the free energy × λ)."""
    risks = np.asarray(empirical_risks, dtype=float)
    return float(-logsumexp(prior.log_probabilities - temperature * risks))


def gibbs_oracle_bound(
    prior: DiscreteDistribution,
    true_risks,
    temperature: float,
    n: int,
    *,
    loss_range: float = 1.0,
) -> float:
    """Zhang-style oracle bound on the *expected true risk* of the Gibbs
    estimator (the paper's reference 12, in-expectation form):

        ``E_Ẑ E_{θ~π̂_λ} R(θ)  ≤  min_ρ { E_ρ R + KL(ρ‖π)/λ }
                                   + λ·loss_range² / (8n)``.

    The first term has the closed form ``-(1/λ)·log E_π e^{-λR}`` (the
    free energy of the *true* risks); the second is the Hoeffding price
    of estimating R by R̂ from n samples.
    """
    risks = np.asarray(true_risks, dtype=float)
    temperature = check_positive(temperature, name="temperature")
    if n < 1:
        raise ValidationError("n must be >= 1")
    loss_range = check_positive(loss_range, name="loss_range")

    oracle_term = (
        -logsumexp(prior.log_probabilities - temperature * risks) / temperature
    )
    estimation_term = temperature * loss_range**2 / (8.0 * n)
    return float(oracle_term + estimation_term)


def minimize_catoni_bound(
    prior: DiscreteDistribution,
    empirical_risks,
    temperature: float,
    *,
    numerical: bool = False,
) -> tuple[DiscreteDistribution, float]:
    """Minimize the Catoni objective over all posteriors on the support.

    Returns ``(posterior, objective_value)``. With ``numerical=True`` the
    minimization is redone with a generic simplex optimizer (SLSQP over
    softmax-parametrized weights) instead of the closed form — Experiment
    E3 uses this to confirm the optimizer lands on the Gibbs posterior.
    """
    risks = np.asarray(empirical_risks, dtype=float)
    closed_form = gibbs_minimizer(prior, risks, temperature)
    if not numerical:
        return closed_form, catoni_objective(closed_form, prior, risks, temperature)

    from scipy.optimize import minimize

    size = len(prior)
    if risks.shape[0] != size:
        raise ValidationError("empirical_risks must match the support size")
    temperature = check_positive(temperature, name="temperature")
    prior_probs = prior.probabilities

    def objective(logits: np.ndarray) -> float:
        # ``catoni_objective`` of the softmax posterior, validated once
        # above: the probability check and the renormalization are those
        # of ``check_probability_vector``, and a failing vector is handed
        # to it so that it raises as before.
        shifted = logits - logits.max()
        probs = np.exp(shifted)
        probs /= probs.sum()
        total = float(probs.sum())
        if not abs(total - 1.0) <= PROBABILITY_SLACK:
            check_probability_vector(probs)
        probs = probs / total
        return temperature * float(risks @ probs) + float(_kl_rows(probs, prior_probs))

    result = minimize(
        objective,
        x0=np.zeros(size),
        method="Nelder-Mead" if size <= 8 else "Powell",
        options={"maxiter": 20_000, "xatol": 1e-10, "fatol": 1e-12}
        if size <= 8
        else {"maxiter": 20_000},
    )
    shifted = result.x - result.x.max()
    probs = np.exp(shifted)
    probs /= probs.sum()
    numerical_posterior = DiscreteDistribution(prior.support, probs)
    return numerical_posterior, float(result.fun)


@dataclass
class BoundReport:
    """All three bounds evaluated for one (posterior, sample) pair."""

    empirical_risk: float
    kl: float
    n: int
    delta: float
    temperature: float
    catoni: float
    mcallester: float
    seeger: float

    def tightest(self) -> tuple[str, float]:
        """Name and value of the smallest bound."""
        candidates = {
            "catoni": self.catoni,
            "mcallester": self.mcallester,
            "seeger": self.seeger,
        }
        name = min(candidates, key=candidates.get)
        return name, candidates[name]


def evaluate_all_bounds(
    posterior: DiscreteDistribution,
    prior: DiscreteDistribution,
    empirical_risks,
    n: int,
    *,
    delta: float = 0.05,
    temperature: float | None = None,
) -> BoundReport:
    """Evaluate Catoni, McAllester and Seeger for one posterior.

    ``temperature`` defaults to ``sqrt(n)`` — a standard a-priori choice
    that balances the two Catoni terms.
    """
    risks = np.asarray(empirical_risks, dtype=float)
    gibbs_risk = float(risks @ posterior.probabilities)
    kl = kl_divergence(posterior, prior)
    if temperature is None:
        temperature = float(np.sqrt(n))
    return BoundReport(
        empirical_risk=gibbs_risk,
        kl=kl,
        n=int(n),
        delta=float(delta),
        temperature=float(temperature),
        catoni=catoni_bound(gibbs_risk, kl, n, temperature, delta),
        mcallester=mcallester_bound(gibbs_risk, kl, n, delta),
        seeger=seeger_bound(gibbs_risk, kl, n, delta),
    )
