"""Unit tests for quantitative-information-flow leakage and DP bounds."""

import numpy as np
import pytest

from repro.core import GibbsEstimator, LearningChannel
from repro.distributions import DiscreteDistribution
from repro.exceptions import ValidationError
from repro.information import (
    DiscreteChannel,
    alvim_min_entropy_bound,
    leakage_bound_report,
    mi_bound_capacity,
    mi_bound_group_privacy,
    mi_bound_source_entropy,
    min_entropy_leakage,
    posterior_vulnerability,
    vulnerability,
)
from repro.learning import BernoulliTask, PredictorGrid


@pytest.fixture
def bsc():
    return DiscreteChannel([0, 1], [0, 1], [[0.9, 0.1], [0.1, 0.9]])


class TestVulnerability:
    def test_prior_vulnerability(self):
        assert vulnerability([0.2, 0.8]) == pytest.approx(0.8)

    def test_posterior_vulnerability_bsc(self, bsc):
        # Uniform prior: V = Σ_y max_x 0.5·C[x,y] = 0.45 + 0.45 = 0.9.
        assert posterior_vulnerability(bsc, [0.5, 0.5]) == pytest.approx(0.9)

    def test_posterior_at_least_prior(self, bsc):
        rng = np.random.default_rng(0)
        for _ in range(20):
            prior = rng.dirichlet([1, 1])
            assert posterior_vulnerability(bsc, prior) >= vulnerability(prior) - 1e-12

    def test_length_mismatch_rejected(self, bsc):
        with pytest.raises(ValidationError):
            posterior_vulnerability(bsc, [0.5, 0.25, 0.25])


class TestMinEntropyLeakage:
    def test_nonnegative(self, bsc):
        assert min_entropy_leakage(bsc, [0.3, 0.7]) >= 0.0

    def test_useless_channel_leaks_nothing(self):
        channel = DiscreteChannel([0, 1], [0, 1], [[0.5, 0.5], [0.5, 0.5]])
        assert min_entropy_leakage(channel, [0.4, 0.6]) == pytest.approx(0.0)

    def test_noiseless_channel_leaks_everything(self):
        channel = DiscreteChannel([0, 1], [0, 1], np.eye(2))
        # Uniform prior: leakage = log(1/0.5) = log 2.
        assert min_entropy_leakage(channel, [0.5, 0.5]) == pytest.approx(np.log(2))


class TestAlvimBound:
    def test_formula(self):
        # n=1, u=2: log(2e^ε / (1 + e^ε)).
        eps = 1.0
        expected = np.log(2 * np.e / (1 + np.e))
        assert alvim_min_entropy_bound(eps, 1, 2) == pytest.approx(expected)

    def test_linear_in_n(self):
        one = alvim_min_entropy_bound(1.0, 1, 2)
        three = alvim_min_entropy_bound(1.0, 3, 2)
        assert three == pytest.approx(3 * one)

    def test_randomized_response_attains_the_bound(self):
        """RR is the worst-case ε-DP channel for min-entropy leakage: its
        per-record leakage equals the Alvim bound exactly."""
        from repro.mechanisms import RandomizedResponse

        eps = 1.3
        channel = RandomizedResponse(eps).as_channel()
        leakage = min_entropy_leakage(channel, [0.5, 0.5])
        assert leakage == pytest.approx(alvim_min_entropy_bound(eps, 1, 2))

    def test_rejects_bad_universe(self):
        with pytest.raises(ValidationError):
            alvim_min_entropy_bound(1.0, 1, 1)


class TestMIBounds:
    def test_group_privacy_formula(self):
        assert mi_bound_group_privacy(0.5, 4) == pytest.approx(2.0)

    def test_capacity_bound_for_bsc(self, bsc):
        cap = mi_bound_capacity(bsc)
        f = 0.1
        expected = np.log(2) + f * np.log(f) + (1 - f) * np.log(1 - f)
        assert cap == pytest.approx(expected, abs=1e-7)

    def test_source_entropy_bound(self):
        assert mi_bound_source_entropy([0.5, 0.5]) == pytest.approx(np.log(2))


class TestLeakageBoundReport:
    @pytest.fixture
    def gibbs_channel(self):
        task = BernoulliTask(p=0.7)
        grid = PredictorGrid.linspace(task.loss, 0.0, 1.0, 5)
        estimator = GibbsEstimator.from_privacy(grid, 1.0, expected_sample_size=2)
        law = DiscreteDistribution([0, 1], [0.3, 0.7])
        learning = LearningChannel(law, 2, estimator.gibbs.posterior)
        return learning

    def test_all_bounds_dominate_measured_mi(self, gibbs_channel):
        report = leakage_bound_report(
            gibbs_channel.channel,
            gibbs_channel.sample_law.probabilities,
            epsilon=1.0,
            n=2,
            universe_size=2,
        )
        mi = report["mutual_information"]
        assert mi <= report["bound_group_privacy"] + 1e-9
        assert mi <= report["bound_capacity"] + 1e-7
        assert mi <= report["bound_source_entropy"] + 1e-9

    def test_alvim_bound_dominates_min_entropy_leakage(self, gibbs_channel):
        report = leakage_bound_report(
            gibbs_channel.channel,
            gibbs_channel.sample_law.probabilities,
            epsilon=1.0,
            n=2,
            universe_size=2,
        )
        assert (
            report["min_entropy_leakage"]
            <= report["bound_alvim_min_entropy"] + 1e-9
        )

    def test_capacity_tighter_than_group_privacy_at_large_epsilon(self):
        """With a small output alphabet, capacity saturates at log|Θ| while
        the group-privacy bound grows linearly in ε — the comparison the
        paper's future work asks for."""
        task = BernoulliTask(p=0.7)
        grid = PredictorGrid.linspace(task.loss, 0.0, 1.0, 3)
        estimator = GibbsEstimator.from_privacy(grid, 10.0, expected_sample_size=2)
        law = DiscreteDistribution([0, 1], [0.5, 0.5])
        learning = LearningChannel(law, 2, estimator.gibbs.posterior)
        report = leakage_bound_report(
            learning.channel,
            learning.sample_law.probabilities,
            epsilon=10.0,
            n=2,
            universe_size=2,
        )
        assert report["bound_capacity"] < report["bound_group_privacy"]
