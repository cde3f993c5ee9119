"""Unit tests for the LearningChannel (Figure 1)."""

import numpy as np
import pytest

from repro.core import GibbsEstimator, GibbsPosterior, LearningChannel
from repro.distributions import DiscreteDistribution
from repro.exceptions import ValidationError
from repro.learning import BernoulliTask, PredictorGrid


@pytest.fixture
def channel_setup():
    task = BernoulliTask(p=0.7)
    grid = PredictorGrid.linspace(task.loss, 0.0, 1.0, 3)
    data_law = DiscreteDistribution([0, 1], [0.3, 0.7])
    gibbs = GibbsPosterior(grid, temperature=2.0)
    channel = LearningChannel(data_law, n=2, posterior_map=gibbs.posterior)
    return task, grid, gibbs, channel


class TestConstruction:
    def test_enumerates_all_samples(self, channel_setup):
        _, _, _, channel = channel_setup
        assert len(channel.samples) == 4
        assert (0, 1) in channel.samples

    def test_predictor_alphabet(self, channel_setup):
        _, grid, _, channel = channel_setup
        assert channel.predictors == grid.thetas

    def test_rejects_bad_n(self, channel_setup):
        _, _, gibbs, _ = channel_setup
        law = DiscreteDistribution([0, 1], [0.5, 0.5])
        with pytest.raises(ValidationError):
            LearningChannel(law, n=0, posterior_map=gibbs.posterior)


class TestInformationQuantities:
    def test_mutual_information_nonnegative_and_below_entropy(self, channel_setup):
        _, _, _, channel = channel_setup
        mi = channel.mutual_information()
        assert 0.0 <= mi <= channel.sample_entropy() + 1e-12

    def test_mi_increases_with_temperature(self):
        """Sharper posteriors leak more about the sample."""
        task = BernoulliTask(p=0.7)
        grid = PredictorGrid.linspace(task.loss, 0.0, 1.0, 3)
        law = DiscreteDistribution([0, 1], [0.3, 0.7])
        infos = []
        for temperature in [0.1, 1.0, 10.0]:
            gibbs = GibbsPosterior(grid, temperature)
            channel = LearningChannel(law, n=2, posterior_map=gibbs.posterior)
            infos.append(channel.mutual_information())
        assert infos[0] < infos[1] < infos[2]

    def test_optimal_prior_is_mixture_of_posteriors(self, channel_setup):
        _, _, gibbs, channel = channel_setup
        prior = channel.optimal_prior()
        expected = np.zeros(len(channel.predictors))
        for sample, weight in channel.sample_law:
            expected += weight * gibbs.posterior(list(sample)).probabilities
        assert prior.probabilities == pytest.approx(expected)

    def test_kl_decomposition_with_optimal_prior(self, channel_setup):
        """E KL(π̂ ‖ E π̂) equals the channel mutual information exactly."""
        from repro.information import kl_divergence

        _, _, gibbs, channel = channel_setup
        marginal = channel.optimal_prior()
        expected_kl = sum(
            weight * kl_divergence(gibbs.posterior(list(sample)), marginal)
            for sample, weight in channel.sample_law
        )
        assert expected_kl == pytest.approx(channel.mutual_information())

    def test_adversary_posterior_is_bayes(self, channel_setup):
        _, _, _, channel = channel_setup
        theta = channel.predictors[0]
        posterior = channel.adversary_posterior(theta)
        assert posterior.probabilities.sum() == pytest.approx(1.0)
        # Adversary posterior must deviate from the prior sample law when
        # MI > 0 for at least one output.
        deviations = [
            channel.adversary_posterior(t).total_variation_distance(
                channel.sample_law
            )
            for t in channel.predictors
        ]
        assert max(deviations) > 0


class TestPrivacyAndRisk:
    def test_exact_privacy_loss_bounded_by_theorem(self, channel_setup):
        _, grid, gibbs, channel = channel_setup
        measured = channel.exact_privacy_loss()
        claimed = gibbs.privacy_epsilon(n=2)
        assert measured <= claimed + 1e-12

    def test_privacy_loss_positive(self, channel_setup):
        _, _, _, channel = channel_setup
        assert channel.exact_privacy_loss() > 0

    def test_expected_risk(self, channel_setup):
        task, _, _, channel = channel_setup

        def risk(sample, theta):
            return task.true_risk(theta)

        value = channel.expected_risk(risk)
        assert 0.0 <= value <= 1.0

    def test_expected_risk_improves_with_temperature(self):
        task = BernoulliTask(p=0.8)
        grid = PredictorGrid.linspace(task.loss, 0.0, 1.0, 5)
        law = DiscreteDistribution([0, 1], [0.2, 0.8])

        def risk(sample, theta):
            return task.true_risk(theta)

        values = []
        for temperature in [0.1, 5.0, 50.0]:
            gibbs = GibbsPosterior(grid, temperature)
            channel = LearningChannel(law, n=3, posterior_map=gibbs.posterior)
            values.append(channel.expected_risk(risk))
        assert values[0] > values[1] > values[2]

    def test_leakage_summary_keys(self, channel_setup):
        _, _, _, channel = channel_setup
        summary = channel.leakage_summary()
        assert set(summary) == {
            "n",
            "num_samples",
            "num_predictors",
            "mutual_information",
            "sample_entropy",
            "leakage_fraction",
            "exact_privacy_loss",
        }
        assert 0.0 <= summary["leakage_fraction"] <= 1.0


class TestMutualInformationCrossCheck:
    """ε-DP bounds the information the channel can carry.

    Per record, ``I(Zᵢ; θ | Z₋ᵢ)`` is an average of ``KL`` between output
    laws on neighbouring samples, and ε-DP caps that KL at
    ``min(ε, ε·(e^ε − 1))`` (max divergence, and the Dwork–Rothblum–Vadhan
    bound). With independent records the chain rule sums n such terms
    (Cuff–Yu, *Differential Privacy as a Mutual Information Constraint*).
    """

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("epsilon", [0.05, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0])
    def test_mi_bounded_by_measured_epsilon(self, epsilon, n):
        task = BernoulliTask(p=0.7)
        grid = PredictorGrid.linspace(task.loss, 0.0, 1.0, 5)
        law = DiscreteDistribution([0, 1], [1 - 0.7, 0.7])
        estimator = GibbsEstimator.from_privacy(grid, epsilon, expected_sample_size=n)
        channel = LearningChannel(law, n=n, posterior_map=estimator.gibbs.posterior)
        measured = channel.exact_privacy_loss()
        bound = n * min(measured, measured * np.expm1(measured))
        assert channel.mutual_information() <= bound
