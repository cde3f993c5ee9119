"""Unit tests for private posterior sampling (Beta–Bernoulli)."""

import numpy as np
import pytest

from repro.core.bayes import (
    TruncatedBetaBernoulliPosterior,
    bernoulli_log_likelihood_range,
    temperature_for_posterior_privacy,
)
from repro.exceptions import ValidationError


class TestCalibration:
    def test_likelihood_range_formula(self):
        assert bernoulli_log_likelihood_range(0.1) == pytest.approx(np.log(9.0))

    def test_range_grows_as_truncation_shrinks(self):
        assert bernoulli_log_likelihood_range(0.01) > bernoulli_log_likelihood_range(0.2)

    def test_privacy_roundtrip(self):
        b = 2.0
        lam = temperature_for_posterior_privacy(1.0, b)
        assert 2.0 * lam * b == pytest.approx(1.0)

    def test_rejects_bad_truncation(self):
        with pytest.raises(ValidationError):
            bernoulli_log_likelihood_range(0.5)


class TestPosterior:
    @pytest.fixture
    def data(self):
        rng = np.random.default_rng(0)
        return (rng.uniform(size=400) < 0.7).astype(int)

    def test_parameters_scale_with_temperature(self, data):
        model = TruncatedBetaBernoulliPosterior(epsilon=1.0, truncation=0.1)
        alpha, beta = model.posterior_parameters(data)
        k = data.sum()
        assert alpha == pytest.approx(1.0 + model.temperature * k)
        assert beta == pytest.approx(1.0 + model.temperature * (len(data) - k))

    def test_samples_respect_truncation(self, data):
        model = TruncatedBetaBernoulliPosterior(epsilon=1.0, truncation=0.2)
        rng = np.random.default_rng(1)
        draws = [model.release(data, random_state=rng) for _ in range(500)]
        assert min(draws) >= 0.2
        assert max(draws) <= 0.8

    def test_concentrates_near_truth_at_large_epsilon(self, data):
        model = TruncatedBetaBernoulliPosterior(epsilon=200.0, truncation=0.05)
        rng = np.random.default_rng(2)
        draws = np.array([model.release(data, random_state=rng) for _ in range(300)])
        assert draws.mean() == pytest.approx(data.mean(), abs=0.05)
        assert draws.std() < 0.1

    def test_near_prior_at_tiny_epsilon(self, data):
        model = TruncatedBetaBernoulliPosterior(epsilon=1e-6, truncation=0.05)
        rng = np.random.default_rng(3)
        draws = np.array([model.release(data, random_state=rng) for _ in range(2000)])
        # Uniform prior truncated to [0.05, 0.95]: mean 0.5, high spread.
        assert draws.mean() == pytest.approx(0.5, abs=0.03)
        assert draws.std() > 0.2

    def test_posterior_mean_matches_samples(self, data):
        model = TruncatedBetaBernoulliPosterior(epsilon=5.0, truncation=0.05)
        rng = np.random.default_rng(4)
        draws = np.array([model.release(data, random_state=rng) for _ in range(20_000)])
        assert draws.mean() == pytest.approx(model.posterior_mean(data), abs=0.005)

    def test_density_normalized(self, data):
        model = TruncatedBetaBernoulliPosterior(epsilon=2.0, truncation=0.1)
        thetas = np.linspace(0.1, 0.9, 100_001)
        densities = model.posterior_density(data, thetas)
        assert np.trapezoid(densities, thetas) == pytest.approx(1.0, abs=1e-3)

    def test_density_zero_outside_truncation(self, data):
        model = TruncatedBetaBernoulliPosterior(epsilon=2.0, truncation=0.1)
        assert model.posterior_density(data, 0.01) == 0.0

    def test_rejects_bad_data(self):
        model = TruncatedBetaBernoulliPosterior(epsilon=1.0)
        with pytest.raises(ValidationError):
            model.posterior_parameters([0, 1, 2])

    def test_mse_improves_with_epsilon(self, data):
        strict = TruncatedBetaBernoulliPosterior(epsilon=0.05)
        loose = TruncatedBetaBernoulliPosterior(epsilon=50.0)
        mse_strict = strict.mean_squared_error(data, 0.7, random_state=5)
        mse_loose = loose.mean_squared_error(data, 0.7, random_state=6)
        assert mse_loose < mse_strict


class TestPosteriorInATail:
    """A large ε puts the tempered posterior of an all-ones or all-zeros
    sample far outside ``[a, 1 - a]``: the interval's mass underflows,
    rounds away or keeps a few bits in ``I(θ)`` coordinates, and the
    sampler measures it in log space from the tail it lies in."""

    @pytest.fixture
    def model(self):
        return TruncatedBetaBernoulliPosterior(epsilon=50.0, truncation=0.05)

    @pytest.mark.parametrize(
        "data, epsilon, edge",
        [
            ([1] * 4000, 50.0, 0.95),
            ([0] * 400, 50.0, 0.05),
            ([0] * 4000, 50.0, 0.05),
            ([0] * 400, 10.0, 0.05),
        ],
        ids=["4000-ones", "400-zeros", "4000-zeros", "400-zeros-eps10"],
    )
    def test_mass_piles_at_the_near_edge(self, data, epsilon, edge):
        model = TruncatedBetaBernoulliPosterior(epsilon=epsilon, truncation=0.05)
        alpha, beta = model.posterior_parameters(data)
        mean = model.posterior_mean(data)
        # The law within the interval is close to exponential at the
        # edge, with scale 1 / |d log density / dθ| there.
        scale = 1.0 / abs((alpha - 1.0) / edge - (beta - 1.0) / (1.0 - edge))
        assert abs(mean - edge) == pytest.approx(scale, rel=0.01)
        draws = np.asarray(model.release_many(data, 400, random_state=2))
        assert draws.min() >= 0.05 and draws.max() <= 0.95
        assert np.abs(draws - edge).max() < 20 * scale
        assert draws.mean() == pytest.approx(mean, abs=4 * scale / 20)

    def test_density_normalized(self, model):
        thetas = np.linspace(0.95 - 1e-3, 0.95, 100_001)
        densities = model.posterior_density([1] * 4000, thetas)
        assert np.trapezoid(densities, thetas) == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize(
        "data, epsilon, truncation",
        [([1] * 25, 50.0, 0.05), ([0, 0, 0], 50.0, 0.2), ([1] * 40, 10.0, 0.1)],
    )
    def test_log_space_quantiles_match_the_cdf_path(self, data, epsilon, truncation):
        """Where ``I(θ)`` still resolves the interval, the log-space
        quantile agrees with ``betaincinv`` on it."""
        from scipy.special import betaincinv

        model = TruncatedBetaBernoulliPosterior(
            epsilon=epsilon, truncation=truncation
        )
        alpha, beta = model.posterior_parameters(data)
        low, high = model._truncated_cdf_bounds(alpha, beta)
        # The tail sampler's orientation, on a law it would not be given.
        reflected = low + high > 1.0
        p, q = (beta, alpha) if reflected else (alpha, beta)
        for u in (0.0, 1e-9, 0.3, 0.5, 0.999):
            expected = float(betaincinv(alpha, beta, low + (high - low) * u))
            quantile = model._tail_inverse_cdf(p, q, 1.0 - u if reflected else u)
            got = 1.0 - quantile if reflected else quantile
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-12)
        tail_mean = p / (p + q) * np.exp(
            model._log_tail_mass(p + 1.0, q) - model._log_tail_mass(p, q)
        )
        mean = 1.0 - tail_mean if reflected else tail_mean
        assert mean == pytest.approx(model.posterior_mean(data), rel=1e-9)


class TestPrivacyOfPosteriorSampling:
    def test_discretized_audit_respects_guarantee(self):
        """Discretize the released sample to a fine grid and audit the
        induced discrete mechanism exactly over neighbour pairs: the
        measured ε must stay within the nominal guarantee (discretization
        is post-processing, so it cannot inflate the loss)."""
        from repro.distributions import DiscreteDistribution
        from repro.information import max_divergence

        epsilon = 1.0
        model = TruncatedBetaBernoulliPosterior(epsilon=epsilon, truncation=0.1)
        edges = np.linspace(0.1, 0.9, 81)

        def discrete_law(dataset):
            alpha, beta = model.posterior_parameters(dataset)
            from scipy.stats import beta as beta_distribution

            cdf = beta_distribution.cdf(edges, alpha, beta)
            masses = np.diff(cdf)
            masses = np.clip(masses, 1e-300, None)
            return DiscreteDistribution(range(len(masses)), masses / masses.sum())

        worst = 0.0
        datasets = [[0, 0, 0], [0, 0, 1], [0, 1, 1], [1, 1, 1]]
        for a in datasets:
            for b in datasets:
                if sum(1 for x, y in zip(a, b) if x != y) == 1:
                    worst = max(
                        worst, max_divergence(discrete_law(a), discrete_law(b))
                    )
        assert worst <= epsilon + 1e-9
        assert worst > 0.1 * epsilon  # and the guarantee is not vacuous
