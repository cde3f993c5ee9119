"""Private Bayesian inference by posterior sampling ("privacy for free").

With the negative log-likelihood as the loss, the paper's Gibbs posterior
at temperature λ *is* the tempered Bayesian posterior

    p_λ(θ | x₁…xₙ)  ∝  π(θ) · Π p(xᵢ | θ)^λ        (λ = 1: exact Bayes),

so Theorem 4.1 specializes to the posterior-sampling privacy result of
Dimitrakakis et al. / Wang–Fienberg–Smola: if the log-likelihood of one
observation varies by at most B over the (truncated) parameter space,
releasing one posterior sample is ``2·λ·B``-differentially private.

:class:`TruncatedBetaBernoulliPosterior` instantiates this exactly for
the Beta–Bernoulli model with θ truncated to ``[a, 1-a]`` (truncation is
what makes B finite), using closed-form Beta posteriors — no grids, no
MCMC — with privacy read off the truncation level.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.mechanisms.base import Mechanism, PrivacySpec
from repro.utils.validation import check_in_range, check_positive, check_random_state


def bernoulli_log_likelihood_range(truncation: float) -> float:
    """``B = sup |log p(x|θ) - log p(x'|θ)|`` for θ ∈ [a, 1-a].

    The extreme ratio is between observing 1 and 0 at an endpoint:
    ``B = log((1-a)/a)``.
    """
    truncation = check_in_range(
        truncation, name="truncation", low=0.0, high=0.5, inclusive=False
    )
    return float(np.log((1.0 - truncation) / truncation))


def posterior_sampling_privacy(temperature: float, log_likelihood_range: float) -> float:
    """Theorem 4.1 specialized: one tempered-posterior sample is
    ``2·λ·B``-DP (substitution neighbours)."""
    temperature = check_positive(temperature, name="temperature")
    log_likelihood_range = check_positive(
        log_likelihood_range, name="log_likelihood_range"
    )
    return 2.0 * temperature * log_likelihood_range


def temperature_for_posterior_privacy(
    epsilon: float, log_likelihood_range: float
) -> float:
    """Inverse calibration: ``λ = ε / (2B)``.

    Note the temperature is *per release*, independent of n: more data
    sharpens the posterior for free, unlike the risk-based calibration
    where Δ(R̂) shrinks with n.
    """
    epsilon = check_positive(epsilon, name="epsilon")
    log_likelihood_range = check_positive(
        log_likelihood_range, name="log_likelihood_range"
    )
    return epsilon / (2.0 * log_likelihood_range)


class TruncatedBetaBernoulliPosterior(Mechanism):
    """ε-DP Bernoulli-bias estimation by tempered-posterior sampling.

    Parameters
    ----------
    epsilon:
        Privacy target per released sample.
    truncation:
        θ is restricted to ``[truncation, 1 - truncation]``; smaller
        truncation → larger likelihood range B → colder posterior needed.
    prior_alpha, prior_beta:
        Beta prior hyperparameters.
    """

    def __init__(
        self,
        epsilon: float,
        *,
        truncation: float = 0.05,
        prior_alpha: float = 1.0,
        prior_beta: float = 1.0,
    ) -> None:
        super().__init__(PrivacySpec(epsilon=epsilon))
        self.truncation = check_in_range(
            truncation, name="truncation", low=0.0, high=0.5, inclusive=False
        )
        self.prior_alpha = check_positive(prior_alpha, name="prior_alpha")
        self.prior_beta = check_positive(prior_beta, name="prior_beta")
        self.log_likelihood_range = bernoulli_log_likelihood_range(truncation)
        self.temperature = temperature_for_posterior_privacy(
            epsilon, self.log_likelihood_range
        )

    def posterior_parameters(self, data) -> tuple[float, float]:
        """Tempered-posterior Beta parameters ``(α + λk, β + λ(n-k))``.

        Tempering raises the likelihood to the power λ, which for the
        Bernoulli model simply scales the sufficient statistics.
        """
        bits = np.asarray(data, dtype=int)
        if bits.size == 0 or not np.isin(bits, (0, 1)).all():
            raise ValidationError("data must be a nonempty 0/1 array")
        successes = float(bits.sum())
        failures = float(bits.size - bits.sum())
        return (
            self.prior_alpha + self.temperature * successes,
            self.prior_beta + self.temperature * failures,
        )

    def _truncated_cdf_bounds(self, alpha: float, beta: float) -> tuple[float, float]:
        from scipy.special import betainc

        low = betainc(alpha, beta, self.truncation)
        high = betainc(alpha, beta, 1.0 - self.truncation)
        return float(low), float(high)

    def release(self, data, random_state=None) -> float:
        """One exact sample from the truncated tempered posterior.

        Inverse-CDF sampling restricted to the truncation interval — no
        rejection loop, no MCMC error, so the nominal guarantee is exact.
        """
        from scipy.special import betaincinv

        rng = check_random_state(random_state)
        alpha, beta = self.posterior_parameters(data)
        low, high = self._truncated_cdf_bounds(alpha, beta)
        u = low + (high - low) * rng.uniform()
        return float(betaincinv(alpha, beta, u))

    def posterior_mean(self, data) -> float:
        """Mean of the truncated tempered posterior (itself NOT private —
        it is deterministic in the data; use :meth:`release`)."""
        from scipy.special import betainc

        alpha, beta = self.posterior_parameters(data)
        low, high = self._truncated_cdf_bounds(alpha, beta)
        # E[θ | truncated] via the Beta(α+1, β) identity.
        weight = alpha / (alpha + beta)
        numerator = betainc(alpha + 1, beta, 1.0 - self.truncation) - betainc(
            alpha + 1, beta, self.truncation
        )
        return float(weight * numerator / (high - low))

    def posterior_density(self, data, theta):
        """Truncated tempered posterior density at θ (exact, normalized);
        elementwise for an array θ, and 0 outside the truncation."""
        from scipy.stats import beta as beta_distribution

        thetas = np.asarray(theta, dtype=float)
        alpha, beta = self.posterior_parameters(data)
        low, high = self._truncated_cdf_bounds(alpha, beta)
        inside = (self.truncation <= thetas) & (thetas <= 1.0 - self.truncation)
        density = np.zeros(thetas.shape)
        pdf = beta_distribution.pdf(thetas[inside], alpha, beta)
        density[inside] = pdf / (high - low)
        return float(density) if density.ndim == 0 else density

    def mean_squared_error(self, data, truth: float, *, n_samples: int = 1000,
                           random_state=None) -> float:
        """Monte-Carlo MSE of released samples around a known truth."""
        rng = check_random_state(random_state)
        draws = np.asarray(
            self.release_many(data, n_samples, random_state=rng), dtype=float
        )
        return float(((draws - float(truth)) ** 2).mean())
