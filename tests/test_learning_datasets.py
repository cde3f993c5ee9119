"""Unit tests for the synthetic tasks — exact risks against Monte Carlo."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.learning import (
    BernoulliTask,
    GaussianThresholdTask,
    LinearRegressionTask,
    TwoGaussiansTask,
)


class TestBernoulliTask:
    def test_sample_frequency(self):
        task = BernoulliTask(p=0.7)
        sample = task.sample(100_000, random_state=0)
        assert sample.mean() == pytest.approx(0.7, abs=0.005)

    def test_true_risk_closed_form(self):
        task = BernoulliTask(p=0.7)
        assert task.true_risk(0.0) == pytest.approx(0.7)
        assert task.true_risk(1.0) == pytest.approx(0.3)

    def test_true_risk_matches_empirical(self):
        task = BernoulliTask(p=0.6)
        sample = task.sample(200_000, random_state=1)
        for theta in [0.0, 0.3, 1.0]:
            assert task.empirical_risk(theta, sample) == pytest.approx(
                task.true_risk(theta), abs=0.005
            )

    def test_bayes_risk(self):
        assert BernoulliTask(p=0.7).bayes_risk() == pytest.approx(0.3)
        assert BernoulliTask(p=0.2).bayes_risk() == pytest.approx(0.2)

    def test_loss_bounded(self):
        task = BernoulliTask(p=0.5)
        assert task.loss(0.3, [0, 1]).max() <= 1.0

    def test_rejects_bad_p(self):
        with pytest.raises(ValidationError):
            BernoulliTask(p=1.5)


class TestGaussianThresholdTask:
    def test_true_risk_at_optimum(self):
        task = GaussianThresholdTask(mu=1.0, sigma=1.0)
        assert task.true_risk(0.0) == pytest.approx(task.bayes_risk())

    def test_true_risk_symmetric(self):
        task = GaussianThresholdTask(mu=1.0, sigma=1.0)
        assert task.true_risk(0.5) == pytest.approx(task.true_risk(-0.5))

    def test_true_risk_matches_empirical(self):
        task = GaussianThresholdTask(mu=1.0, sigma=1.0)
        x, y = task.sample(200_000, random_state=2)
        for t in [-1.0, 0.0, 0.7]:
            assert task.empirical_risk(t, x, y) == pytest.approx(
                task.true_risk(t), abs=0.005
            )

    def test_far_threshold_risk_half(self):
        task = GaussianThresholdTask(mu=1.0, sigma=1.0)
        assert task.true_risk(100.0) == pytest.approx(0.5, abs=1e-6)

    def test_labels_balanced(self):
        task = GaussianThresholdTask()
        _, y = task.sample(100_000, random_state=3)
        assert np.mean(y) == pytest.approx(0.0, abs=0.02)


class TestTwoGaussiansTask:
    def test_true_risk_of_optimal_direction(self):
        mean = np.array([1.0, 1.0])
        task = TwoGaussiansTask(mean)
        assert task.true_risk(mean) == pytest.approx(task.bayes_risk())

    def test_true_risk_scale_invariant(self):
        task = TwoGaussiansTask([1.0, 0.0])
        theta = np.array([2.0, 1.0])
        assert task.true_risk(theta) == pytest.approx(task.true_risk(theta * 10))

    def test_true_risk_matches_empirical(self):
        task = TwoGaussiansTask([1.0, 0.5])
        x, y = task.sample(200_000, random_state=4)
        theta = np.array([1.0, -0.5])
        margins = y * (x @ theta)
        empirical = float((margins <= 0).mean())
        assert empirical == pytest.approx(task.true_risk(theta), abs=0.005)

    def test_orthogonal_direction_risk_half(self):
        task = TwoGaussiansTask([1.0, 0.0])
        assert task.true_risk([0.0, 1.0]) == pytest.approx(0.5)

    def test_zero_theta_risk_half(self):
        task = TwoGaussiansTask([1.0, 0.0])
        assert task.true_risk([0.0, 0.0]) == 0.5

    def test_clipped_features_in_unit_ball(self):
        task = TwoGaussiansTask([2.0, 0.0], clip_features=True)
        x, _ = task.sample(10_000, random_state=5)
        assert np.linalg.norm(x, axis=1).max() <= 1.0 + 1e-9

    def test_rejects_zero_mean(self):
        with pytest.raises(ValidationError):
            TwoGaussiansTask([0.0, 0.0])


class TestLinearRegressionTask:
    def test_true_risk_of_truth_is_noise_floor(self):
        task = LinearRegressionTask([1.0, -2.0], noise=0.3)
        assert task.true_squared_risk([1.0, -2.0]) == pytest.approx(0.09)

    def test_true_risk_matches_empirical(self):
        theta_star = np.array([1.0, -0.5])
        task = LinearRegressionTask(theta_star, noise=0.2)
        x, y = task.sample(300_000, random_state=8)
        theta = np.array([0.5, 0.0])
        empirical = float(((x @ theta - y) ** 2).mean())
        assert empirical == pytest.approx(
            task.true_squared_risk(theta), rel=0.02
        )

    def test_bayes_risk(self):
        assert LinearRegressionTask([1.0], noise=0.5).bayes_squared_risk() == (
            pytest.approx(0.25)
        )
