"""Tests for the Zhang-style oracle inequality (paper ref 12)."""

import numpy as np
import pytest

from repro.core import GibbsPosterior, LearningChannel, gibbs_oracle_bound
from repro.distributions import DiscreteDistribution
from repro.exceptions import ValidationError
from repro.learning import BernoulliTask, PredictorGrid


@pytest.fixture
def setup():
    task = BernoulliTask(p=0.75)
    grid = PredictorGrid.linspace(task.loss, 0.0, 1.0, 5)
    data_law = DiscreteDistribution([0, 1], [0.25, 0.75])
    return task, grid, data_law


class TestOracleBound:
    def test_bound_above_oracle_risk(self, setup):
        task, grid, _ = setup
        prior = DiscreteDistribution.uniform(grid.thetas)
        risks = np.array([task.true_risk(t) for t in grid.thetas])
        bound = gibbs_oracle_bound(prior, risks, temperature=5.0, n=10)
        assert bound >= risks.min()

    def test_bound_tightens_then_loosens_in_temperature(self, setup):
        """Small λ pays the KL/λ term, large λ pays λ/(8n): the bound is
        U-shaped in λ."""
        task, grid, _ = setup
        prior = DiscreteDistribution.uniform(grid.thetas)
        risks = np.array([task.true_risk(t) for t in grid.thetas])
        n = 50
        values = [
            gibbs_oracle_bound(prior, risks, lam, n)
            for lam in [0.1, 20.0, 10_000.0]
        ]
        assert values[1] < values[0]
        assert values[1] < values[2]

    def test_estimation_term_shrinks_with_n(self, setup):
        task, grid, _ = setup
        prior = DiscreteDistribution.uniform(grid.thetas)
        risks = np.array([task.true_risk(t) for t in grid.thetas])
        small = gibbs_oracle_bound(prior, risks, 10.0, n=10)
        large = gibbs_oracle_bound(prior, risks, 10.0, n=10_000)
        assert large < small

    def test_rejects_bad_inputs(self, setup):
        _, grid, _ = setup
        prior = DiscreteDistribution.uniform(grid.thetas)
        with pytest.raises(ValidationError):
            gibbs_oracle_bound(prior, [0.1] * 5, 1.0, n=0)


def oracle_sides(task, grid, data_law, n, temperature, prior=None):
    """Both sides of the oracle inequality: ``E_Ẑ E_{θ~π̂_λ} R(θ)`` by exact
    enumeration through the learning channel, and the bound."""
    gibbs = GibbsPosterior(grid, temperature, prior=prior)
    channel = LearningChannel(data_law, n, gibbs.posterior)
    measured = channel.expected_risk(
        lambda sample, theta: task.true_risk(theta)
    )
    risks = np.array([task.true_risk(t) for t in grid.thetas])
    bound = gibbs_oracle_bound(
        gibbs.prior, risks, temperature, n, loss_range=grid.loss_range
    )
    return measured, bound


class TestOracleInequality:
    @pytest.mark.parametrize("temperature", [0.5, 2.0, 8.0, 40.0])
    def test_holds_across_temperatures(self, setup, temperature):
        measured, bound = oracle_sides(*setup, n=3, temperature=temperature)
        assert measured <= bound + 1e-12

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_holds_across_sample_sizes(self, setup, n):
        measured, bound = oracle_sides(*setup, n=n, temperature=4.0)
        assert measured <= bound + 1e-12

    def test_holds_with_skewed_prior(self, setup):
        _, grid, _ = setup
        prior = DiscreteDistribution(grid.thetas, [0.4, 0.3, 0.1, 0.1, 0.1])
        measured, bound = oracle_sides(*setup, n=2, temperature=3.0, prior=prior)
        assert measured <= bound + 1e-12

    def test_measured_risk_above_bayes(self, setup):
        task = setup[0]
        measured, _ = oracle_sides(*setup, n=3, temperature=8.0)
        assert measured >= task.bayes_risk() - 1e-12

    def test_bound_not_vacuous_at_good_temperature(self, setup):
        """At a well-chosen λ the bound is within 0.1 of the measured
        risk — it is an oracle inequality, not a triviality."""
        measured, bound = oracle_sides(*setup, n=4, temperature=2.0)
        assert bound - measured < 0.1
