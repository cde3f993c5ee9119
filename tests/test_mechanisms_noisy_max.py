"""Unit tests for report-noisy-max and its exponential-mechanism link."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.mechanisms import ExponentialMechanism, ReportNoisyMax


def quality(dataset, candidate):
    return -abs(sum(dataset) - candidate)


class TestReportNoisyMax:
    def test_release_in_range(self):
        mech = ReportNoisyMax(quality, range(4), 1.0, epsilon=1.0)
        assert mech.release([1, 0, 1], random_state=0) in range(4)

    def test_rejects_bad_noise_kind(self):
        with pytest.raises(ValidationError):
            ReportNoisyMax(quality, range(4), 1.0, 1.0, noise="cauchy")

    def test_rejects_empty_outputs(self):
        with pytest.raises(ValidationError):
            ReportNoisyMax(quality, [], 1.0, 1.0)

    def test_gumbel_variant_equals_exponential_mechanism(self):
        """Gumbel-max trick: the output law equals the calibrated
        exponential mechanism's, checked by frequency comparison."""
        epsilon = 2.0
        dataset = [1, 1, 0]
        noisy_max = ReportNoisyMax(quality, range(4), 1.0, epsilon, noise="gumbel")
        exp_mech = ExponentialMechanism(quality, range(4), 1.0, epsilon)
        expected = exp_mech.output_distribution(dataset)

        rng = np.random.default_rng(0)
        draws = [noisy_max.release(dataset, random_state=rng) for _ in range(60_000)]
        for candidate in range(4):
            frequency = np.mean([d == candidate for d in draws])
            assert frequency == pytest.approx(
                expected.probability_of(candidate), abs=0.01
            )

    def test_laplace_variant_still_prefers_best(self):
        mech = ReportNoisyMax(
            quality, range(4), 1.0, epsilon=10.0, noise="laplace"
        )
        dataset = [1, 1, 0]  # best candidate is 2
        rng = np.random.default_rng(1)
        draws = [mech.release(dataset, random_state=rng) for _ in range(5_000)]
        assert np.mean([d == 2 for d in draws]) > 0.8

    def test_release_with_score(self):
        mech = ReportNoisyMax(quality, range(4), 1.0, epsilon=1.0)
        winner, score = mech.release_with_score([1, 1, 0], random_state=2)
        assert winner in range(4)
        assert np.isfinite(score)
