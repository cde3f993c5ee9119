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

import math

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


#: The lower-CDF arithmetic is kept while ``I(1-a) - I(a)`` holds at least
#: half the bits of ``I(1-a)``; past that the truncation interval sits in
#: a tail of the posterior and is measured in log space from that tail.
_RESOLVED = 2.0**-26

#: Floor of the modified-Lentz denominators (Numerical Recipes' FPMIN).
_LENTZ_FLOOR = 1e-300


def _log_betainc(a: float, b: float, x: float) -> float:
    """``log I_x(a, b)`` of the regularized incomplete beta, without underflow.

    The incomplete-beta continued fraction, by modified Lentz, times the
    prefactor ``x^a (1-x)^b / (a B(a, b))`` taken in logs. It converges
    fast below ``x = (a+1)/(a+b+2)``; above, the symmetry
    ``I_x(a, b) = 1 - I_{1-x}(b, a)`` is used instead.
    """
    from scipy.special import betaln

    if x > (a + 1.0) / (a + b + 2.0):
        return math.log1p(-math.exp(_log_betainc(b, a, 1.0 - x)))

    def floored(value: float) -> float:
        return value if abs(value) > _LENTZ_FLOOR else _LENTZ_FLOOR

    c = 1.0
    d = 1.0 / floored(1.0 - (a + b) * x / (a + 1.0))
    fraction = d
    for m in range(1, 10_000):
        even = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        d = 1.0 / floored(1.0 + even * d)
        c = floored(1.0 + even / c)
        fraction *= d * c
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))
        d = 1.0 / floored(1.0 + odd * d)
        c = floored(1.0 + odd / c)
        fraction *= d * c
        if abs(d * c - 1.0) < 1e-16:
            break
    return (
        a * math.log(x)
        + b * math.log1p(-x)
        - math.log(a)
        - float(betaln(a, b))
        + math.log(fraction)
    )


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

    @staticmethod
    def _tail(alpha: float, beta: float, low: float, high: float):
        """The truncation interval as the lower tail of a Beta law, or
        ``None`` while the CDF values ``low``/``high`` resolve it.

        When the interval lies in the upper tail of Beta(α, β)
        (``low + high > 1``), θ ↦ 1 − θ maps it onto itself in the lower
        tail of Beta(β, α). Returns ``(p, q, reflected)``.
        """
        if high - low > _RESOLVED * high:
            return None
        reflected = low + high > 1.0
        return (beta, alpha, True) if reflected else (alpha, beta, False)

    def _log_tail_bounds(self, p: float, q: float) -> tuple[float, float]:
        """``log I`` of Beta(p, q) at the two ends of the truncation."""
        return (
            _log_betainc(p, q, self.truncation),
            _log_betainc(p, q, 1.0 - self.truncation),
        )

    def _log_tail_mass(self, p: float, q: float) -> float:
        """``log(I(1-a) - I(a))`` of Beta(p, q), in its lower tail."""
        log_low, log_high = self._log_tail_bounds(p, q)
        return log_high + math.log1p(-math.exp(log_low - log_high))

    def _tail_inverse_cdf(self, p: float, q: float, u: float) -> float:
        """The truncated Beta(p, q) law's ``u``-quantile, in log space.

        Solves ``log I_θ = log(I(a) + u·(I(1-a) - I(a)))`` for θ in
        ``[a, 1-a]`` by Newton steps on ``log I_θ``, falling back to
        bisection whenever a step leaves the bracket.
        """
        from scipy.special import betaln

        log_low, log_high = self._log_tail_bounds(p, q)
        ratio = math.exp(log_low - log_high)
        share = ratio + u * (1.0 - ratio)
        lo, hi = self.truncation, 1.0 - self.truncation
        if share <= 0.0:
            return lo
        target = log_high + math.log(share)
        log_norm = float(betaln(p, q))
        theta = hi
        for _ in range(200):
            log_cdf = _log_betainc(p, q, theta)
            gap = log_cdf - target
            if gap > 0.0:
                hi = theta
            else:
                lo = theta
            log_pdf = (
                (p - 1.0) * math.log(theta)
                + (q - 1.0) * math.log1p(-theta)
                - log_norm
            )
            step = gap / math.exp(log_pdf - log_cdf)
            following = theta - step
            if not lo < following < hi:
                following = 0.5 * (lo + hi)
            if abs(following - theta) <= 4e-16 * theta:
                return following
            theta = following
        return theta

    def release(self, data, random_state=None) -> float:
        """One exact sample from the truncated tempered posterior.

        Inverse-CDF sampling restricted to the truncation interval — no
        rejection loop, no MCMC error, so the nominal guarantee is exact.
        When the interval holds too little of the posterior for its CDF
        values to resolve it (it lies far in one tail), the quantile is
        taken in log space from that tail.
        """
        from scipy.special import betaincinv

        rng = check_random_state(random_state)
        alpha, beta = self.posterior_parameters(data)
        low, high = self._truncated_cdf_bounds(alpha, beta)
        u = rng.uniform()
        tail = self._tail(alpha, beta, low, high)
        if tail is None:
            return float(betaincinv(alpha, beta, low + (high - low) * u))
        p, q, reflected = tail
        theta = self._tail_inverse_cdf(p, q, u)
        return 1.0 - theta if reflected else theta

    def posterior_mean(self, data) -> float:
        """Mean of the truncated tempered posterior (itself NOT private —
        it is deterministic in the data; use :meth:`release`)."""
        from scipy.special import betainc

        alpha, beta = self.posterior_parameters(data)
        low, high = self._truncated_cdf_bounds(alpha, beta)
        tail = self._tail(alpha, beta, low, high)
        if tail is not None:
            p, q, reflected = tail
            mean = (p / (p + q)) * math.exp(
                self._log_tail_mass(p + 1.0, q) - self._log_tail_mass(p, q)
            )
            return 1.0 - mean if reflected else mean
        # E[θ | truncated] via the Beta(α+1, β) identity.
        weight = alpha / (alpha + beta)
        numerator = betainc(alpha + 1, beta, 1.0 - self.truncation) - betainc(
            alpha + 1, beta, self.truncation
        )
        return float(weight * numerator / (high - low))

    def posterior_density(self, data, theta):
        """Truncated tempered posterior density at θ (exact, normalized);
        elementwise for an array θ, and 0 outside the truncation."""
        from scipy.special import betaln
        from scipy.stats import beta as beta_distribution

        thetas = np.asarray(theta, dtype=float)
        alpha, beta = self.posterior_parameters(data)
        low, high = self._truncated_cdf_bounds(alpha, beta)
        inside = (self.truncation <= thetas) & (thetas <= 1.0 - self.truncation)
        density = np.zeros(thetas.shape)
        tail = self._tail(alpha, beta, low, high)
        if tail is None:
            pdf = beta_distribution.pdf(thetas[inside], alpha, beta)
            density[inside] = pdf / (high - low)
        else:
            p, q, _ = tail
            points = thetas[inside]
            density[inside] = np.exp(
                (alpha - 1.0) * np.log(points)
                + (beta - 1.0) * np.log1p(-points)
                - float(betaln(alpha, beta))
                - self._log_tail_mass(p, q)
            )
        return float(density) if density.ndim == 0 else density

    def mean_squared_error(self, data, truth: float, *, n_samples: int = 1000,
                           random_state=None) -> float:
        """Monte-Carlo MSE of released samples around a known truth."""
        rng = check_random_state(random_state)
        draws = np.asarray(
            self.release_many(data, n_samples, random_state=rng), dtype=float
        )
        return float(((draws - float(truth)) ** 2).mean())
