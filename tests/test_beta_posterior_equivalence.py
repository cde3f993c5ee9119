"""The truncated Beta posterior reads ``betainc``/``betaincinv``, bit for bit.

``TruncatedBetaBernoulliPosterior`` used to take its truncation bounds,
draws and truncated means from ``scipy.stats.beta.cdf`` and ``ppf``; it now
calls ``scipy.special.betainc`` and ``betaincinv``, so that E13 never
imports ``scipy.stats``. ``beta.cdf`` is ``betainc`` under
``rv_continuous``'s argument handling, and ``beta.ppf`` and ``betaincinv``
both wrap Boost's ``ibeta_inv``. The swap is pinned to the last bit
(``float.hex``):

* on 20 000 seeded ``(a, b, x)`` with ``a, b`` in ``[0.5, 300]`` and ``x``
  in ``(0, 1)``, and on the endpoints ``0`` and ``1`` of ``ppf``;
* on every release, posterior mean and density of E13's sweep, against a
  verbatim copy of the old class.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.special import betainc, betaincinv
from scipy.stats import beta as beta_distribution

from repro.core import TruncatedBetaBernoulliPosterior
from repro.learning import BernoulliTask
from repro.utils.validation import check_random_state

E13_EPSILONS = (0.1, 0.5, 2.0, 10.0, 50.0)


class ReferenceTruncatedBetaBernoulliPosterior(TruncatedBetaBernoulliPosterior):
    """The old ``scipy.stats`` methods, verbatim; everything else inherited."""

    def _truncated_cdf_bounds(self, alpha: float, beta: float) -> tuple[float, float]:
        low = beta_distribution.cdf(self.truncation, alpha, beta)
        high = beta_distribution.cdf(1.0 - self.truncation, alpha, beta)
        return float(low), float(high)

    def release(self, data, random_state=None) -> float:
        """One exact sample from the truncated tempered posterior."""
        rng = check_random_state(random_state)
        alpha, beta = self.posterior_parameters(data)
        low, high = self._truncated_cdf_bounds(alpha, beta)
        u = low + (high - low) * rng.uniform()
        return float(beta_distribution.ppf(u, alpha, beta))

    def posterior_mean(self, data) -> float:
        """Mean of the truncated tempered posterior."""
        alpha, beta = self.posterior_parameters(data)
        low, high = self._truncated_cdf_bounds(alpha, beta)
        # E[θ | truncated] via the Beta(α+1, β) identity.
        weight = alpha / (alpha + beta)
        numerator = beta_distribution.cdf(
            1.0 - self.truncation, alpha + 1, beta
        ) - beta_distribution.cdf(self.truncation, alpha + 1, beta)
        return float(weight * numerator / (high - low))


def _hex(values) -> list[str]:
    return [float(value).hex() for value in np.ravel(values)]


@pytest.fixture(scope="module")
def random_arguments():
    rng = np.random.default_rng(20261018)
    a = rng.uniform(0.5, 300.0, 20_000)
    b = rng.uniform(0.5, 300.0, 20_000)
    x = rng.uniform(0.0, 1.0, 20_000)
    assert np.all((x > 0) & (x < 1))
    return a, b, x


def test_betainc_equals_beta_cdf(random_arguments):
    a, b, x = random_arguments
    assert _hex(betainc(a, b, x)) == _hex(beta_distribution.cdf(x, a, b))


def test_betaincinv_equals_beta_ppf(random_arguments):
    a, b, u = random_arguments
    assert _hex(betaincinv(a, b, u)) == _hex(beta_distribution.ppf(u, a, b))
    for edge in (0.0, 1.0):
        assert _hex(betaincinv(a[:50], b[:50], edge)) == _hex(
            beta_distribution.ppf(edge, a[:50], b[:50])
        )


@pytest.mark.parametrize("epsilon", E13_EPSILONS)
@pytest.mark.parametrize("truncation", [0.05, 0.2])
def test_sampler_equals_the_scipy_stats_reference(epsilon, truncation):
    """E13's data (n = 400, p = 0.7) and a few small samples, including
    all zeros and all ones."""
    samples = [
        BernoulliTask(p=0.7).sample(400, random_state=0),
        [0, 0, 0],
        [1] * 25,
        [0, 1, 1, 0, 1],
    ]
    new = TruncatedBetaBernoulliPosterior(epsilon=epsilon, truncation=truncation)
    old = ReferenceTruncatedBetaBernoulliPosterior(
        epsilon=epsilon, truncation=truncation
    )
    thetas = np.linspace(0.0, 1.0, 41)
    for data in samples:
        assert _hex(new.release_many(data, 100, random_state=1)) == _hex(
            old.release_many(data, 100, random_state=1)
        )
        assert _hex(new.release(data, random_state=3)) == _hex(
            old.release(data, random_state=3)
        )
        assert _hex(new.posterior_mean(data)) == _hex(old.posterior_mean(data))
        assert _hex(new._truncated_cdf_bounds(*new.posterior_parameters(data))) == (
            _hex(old._truncated_cdf_bounds(*old.posterior_parameters(data)))
        )
        assert _hex(new.posterior_density(data, thetas)) == _hex(
            old.posterior_density(data, thetas)
        )
