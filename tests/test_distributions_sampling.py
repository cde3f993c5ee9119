"""Unit tests for the samplers."""

import warnings

import numpy as np
import pytest

from repro.distributions import (
    BatchedLangevinSampler,
    MetropolisHastingsSampler,
    inverse_cdf_sample,
    log_acceptance_ratio,
)
from repro.exceptions import ValidationError


class TestInverseCdfSample:
    def test_deterministic_mapping(self):
        indices = inverse_cdf_sample([0.2, 0.3, 0.5], [0.1, 0.25, 0.95])
        assert list(indices) == [0, 1, 2]

    def test_boundary_uniform_zero(self):
        assert inverse_cdf_sample([0.5, 0.5], [0.0])[0] == 0

    def test_boundary_uniform_one(self):
        assert inverse_cdf_sample([0.5, 0.5], [1.0])[0] == 1

    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            inverse_cdf_sample([0.5, 0.6], [0.5])

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            inverse_cdf_sample([-0.1, 1.1], [0.5])

    def test_distribution_matches(self):
        rng = np.random.default_rng(0)
        uniforms = rng.uniform(size=100_000)
        indices = inverse_cdf_sample([0.1, 0.9], uniforms)
        assert np.mean(indices) == pytest.approx(0.9, abs=0.01)


class TestMetropolisHastings:
    def test_standard_normal_target(self):
        sampler = MetropolisHastingsSampler(
            lambda x: -0.5 * float(x @ x), dimension=1, step_size=1.0
        )
        result = sampler.run(20_000, burn_in=2_000, random_state=0)
        assert result.samples.shape == (20_000, 1)
        assert result.samples.mean() == pytest.approx(0.0, abs=0.08)
        assert result.samples.std() == pytest.approx(1.0, abs=0.08)

    def test_acceptance_rate_reasonable(self):
        sampler = MetropolisHastingsSampler(
            lambda x: -0.5 * float(x @ x), dimension=1, step_size=1.0
        )
        result = sampler.run(5_000, burn_in=500, random_state=1)
        assert 0.2 < result.acceptance_rate < 0.95

    def test_reproducible(self):
        sampler = MetropolisHastingsSampler(
            lambda x: -0.5 * float(x @ x), dimension=2, step_size=0.5
        )
        a = sampler.run(100, burn_in=10, random_state=7)
        b = sampler.run(100, burn_in=10, random_state=7)
        assert np.array_equal(a.samples, b.samples)

    def test_shifted_target_mean(self):
        mu = np.array([2.0, -1.0])
        sampler = MetropolisHastingsSampler(
            lambda x: -0.5 * float((x - mu) @ (x - mu)),
            dimension=2,
            step_size=1.0,
        )
        result = sampler.run(30_000, burn_in=3_000, random_state=2)
        assert result.samples.mean(axis=0) == pytest.approx(mu, abs=0.1)

    def test_thinning_reduces_autocorrelation(self):
        def log_density(x):
            return -0.5 * float(x @ x)

        sampler = MetropolisHastingsSampler(log_density, dimension=1, step_size=0.3)
        unthinned = sampler.run(4_000, burn_in=500, thin=1, random_state=3)
        thinned = sampler.run(4_000, burn_in=500, thin=10, random_state=3)

        def lag1(samples):
            x = samples[:, 0]
            x = x - x.mean()
            return float((x[:-1] * x[1:]).mean() / (x**2).mean())

        assert lag1(thinned.samples) < lag1(unthinned.samples)

    def test_rejects_bad_initial(self):
        sampler = MetropolisHastingsSampler(lambda x: 0.0, dimension=2)
        with pytest.raises(ValidationError):
            sampler.run(10, initial=[1.0], random_state=0)

    def test_rejects_nonfinite_initial_density(self):
        sampler = MetropolisHastingsSampler(
            lambda x: -np.inf, dimension=1
        )
        with pytest.raises(ValidationError):
            sampler.run(10, random_state=0)

    def test_rejects_bad_counts(self):
        sampler = MetropolisHastingsSampler(lambda x: 0.0, dimension=1)
        with pytest.raises(ValidationError):
            sampler.run(0)
        with pytest.raises(ValidationError):
            sampler.run(10, thin=0)

    def test_extreme_temperature_runs_warning_free(self):
        """Gibbs-scale temperatures: the density *ratio* overflows float64
        (log-gaps of order 1e8), but the log-space acceptance never forms
        it — no overflow warnings, and the chain still concentrates."""
        temperature = 1e8

        def log_density(x):
            return -temperature * float(x @ x)

        sampler = MetropolisHastingsSampler(
            log_density, dimension=1, step_size=1e-4
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = sampler.run(2_000, burn_in=500, random_state=11)
        assert 0.05 < result.acceptance_rate < 1.0
        assert np.all(np.abs(result.samples) < 0.01)

    def test_infinite_density_spike_is_rejected_not_absorbed(self):
        """A +inf proposal log-density must be rejected: accepting it would
        wedge the chain (every later ratio inf - inf = nan, never accepted)."""
        spike = 3.0

        def log_density(x):
            if abs(float(x[0]) - spike) < 0.5:
                return np.inf
            return -0.5 * float(x @ x)

        sampler = MetropolisHastingsSampler(log_density, dimension=1, step_size=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = sampler.run(3_000, burn_in=0, random_state=5)
        assert np.all(np.isfinite(result.log_densities))
        assert np.all(np.abs(result.samples[:, 0] - spike) >= 0.5)

    def test_nan_density_is_rejected(self):
        def log_density(x):
            if float(x[0]) < 0:
                return np.nan
            return -0.5 * float(x @ x)

        sampler = MetropolisHastingsSampler(log_density, dimension=1, step_size=0.8)
        result = sampler.run(1_000, burn_in=0, initial=[1.0], random_state=9)
        assert np.all(result.samples[:, 0] >= 0)
        assert np.all(np.isfinite(result.log_densities))


class TestLogAcceptanceRatio:
    def test_plain_difference(self):
        assert log_acceptance_ratio(-1.0, -3.0) == pytest.approx(2.0)

    def test_correction_term(self):
        assert log_acceptance_ratio(-1.0, -1.0, log_correction=0.5) == (
            pytest.approx(0.5)
        )

    def test_huge_gaps_stay_finite(self):
        assert log_acceptance_ratio(-1e300, -2e300) == pytest.approx(1e300)

    def test_nonfinite_proposals_map_to_minus_inf(self):
        ratios = log_acceptance_ratio(
            np.array([np.inf, np.nan, -np.inf, 0.0]), np.zeros(4)
        )
        assert ratios[0] == -np.inf
        assert ratios[1] == -np.inf
        assert ratios[2] == -np.inf
        assert ratios[3] == 0.0

    def test_scalar_inputs_return_float(self):
        assert isinstance(log_acceptance_ratio(0.0, -1.0), float)


class TestBatchedLangevinSampler:
    @staticmethod
    def _standard_normal(dimension):
        return BatchedLangevinSampler(
            lambda theta: (-0.5 * (theta * theta).sum(axis=1), -theta),
            dimension,
            step_size=0.9,
        )

    def test_standard_normal_target(self):
        sampler = self._standard_normal(3)
        result = sampler.run(4_000, steps=80, random_state=0)
        assert result.samples.shape == (4_000, 3)
        assert result.samples.mean(axis=0) == pytest.approx(
            np.zeros(3), abs=0.08
        )
        assert result.samples.std(axis=0) == pytest.approx(
            np.ones(3), abs=0.08
        )
        assert 0.2 < result.acceptance_rate < 0.95

    def test_batch_equals_sequential_chains_bitwise(self):
        sampler = self._standard_normal(4)
        batch = sampler.run(7, steps=25, random_state=123).samples
        rng = np.random.default_rng(123)
        sequential = np.stack(
            [sampler.run(1, steps=25, random_state=rng).samples[0] for _ in range(7)]
        )
        assert np.array_equal(batch, sequential)

    def test_shifted_target_mean(self):
        mu = np.array([1.5, -2.0])
        sampler = BatchedLangevinSampler(
            lambda theta: (-0.5 * ((theta - mu) ** 2).sum(axis=1), mu - theta),
            2,
            step_size=0.9,
        )
        result = sampler.run(4_000, steps=80, random_state=1)
        assert result.samples.mean(axis=0) == pytest.approx(mu, abs=0.1)

    def test_extreme_temperature_warning_free(self):
        temperature = 1e8
        sampler = BatchedLangevinSampler(
            lambda theta: (
                -temperature * (theta * theta).sum(axis=1),
                -2.0 * temperature * theta,
            ),
            2,
            step_size=1e-4,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = sampler.run(64, steps=50, random_state=3)
        assert np.all(np.abs(result.samples) < 0.01)
        assert np.all(np.isfinite(result.log_densities))

    def test_reproducible(self):
        sampler = self._standard_normal(2)
        a = sampler.run(9, steps=30, random_state=42)
        b = sampler.run(9, steps=30, random_state=42)
        assert np.array_equal(a.samples, b.samples)
        assert a.acceptance_rate == b.acceptance_rate

    def test_rejects_bad_shapes_and_counts(self):
        sampler = self._standard_normal(3)
        with pytest.raises(ValidationError):
            sampler.run(0)
        with pytest.raises(ValidationError):
            sampler.run(2, steps=0)
        with pytest.raises(ValidationError):
            sampler.run(2, initial=[1.0], random_state=0)

    def test_rejects_nonfinite_initial_density(self):
        sampler = BatchedLangevinSampler(
            lambda theta: (np.full(theta.shape[0], -np.inf), -theta),
            2,
        )
        with pytest.raises(ValidationError):
            sampler.run(3, random_state=0)

    def test_rejects_misshapen_callables(self):
        scalar_density = BatchedLangevinSampler(
            lambda theta: (-0.5 * float((theta * theta).sum()), -theta),
            2,
        )
        with pytest.raises(ValidationError, match="log-densities"):
            scalar_density.run(3, random_state=0)
        bad_grad = BatchedLangevinSampler(
            lambda theta: (-0.5 * (theta * theta).sum(axis=1), -theta[:, :1]),
            2,
        )
        with pytest.raises(ValidationError, match="gradients"):
            bad_grad.run(3, random_state=0)
