"""Unit tests for the non-private learners."""

import numpy as np
import pytest

from repro.exceptions import NotFittedError, ValidationError
from repro.learning import (
    LogisticRegressionModel,
    RidgeRegressionModel,
    TwoGaussiansTask,
)


@pytest.fixture
def separable_data():
    task = TwoGaussiansTask([2.0, 0.0])
    return task.sample(400, random_state=0)


class TestLogisticRegression:
    def test_fits_separable_data(self, separable_data):
        x, y = separable_data
        model = LogisticRegressionModel(regularization=0.01).fit(x, y)
        assert model.accuracy(x, y) > 0.9

    def test_recovers_direction(self, separable_data):
        x, y = separable_data
        model = LogisticRegressionModel(regularization=0.01).fit(x, y)
        direction = model.coefficients / np.linalg.norm(model.coefficients)
        assert direction[0] == pytest.approx(1.0, abs=0.15)

    def test_gradient_zero_at_solution(self, separable_data):
        x, y = separable_data
        model = LogisticRegressionModel(regularization=0.1).fit(x, y)
        grad = model.gradient(model.coefficients, x, y.astype(float))
        assert np.linalg.norm(grad) < 1e-6

    def test_newton_and_gd_agree(self, separable_data):
        x, y = separable_data
        newton = LogisticRegressionModel(regularization=0.5).fit(x, y)
        gd = LogisticRegressionModel(regularization=0.5).fit(
            x, y, use_newton=False
        )
        assert newton.coefficients == pytest.approx(gd.coefficients, abs=1e-4)

    def test_probabilities_calibrated_shape(self, separable_data):
        x, y = separable_data
        model = LogisticRegressionModel().fit(x, y)
        probs = model.predict_probability(x)
        assert probs.shape == (len(y),)
        assert (0 <= probs).all() and (probs <= 1).all()

    def test_regularization_shrinks_coefficients(self, separable_data):
        x, y = separable_data
        weak = LogisticRegressionModel(regularization=0.001).fit(x, y)
        strong = LogisticRegressionModel(regularization=10.0).fit(x, y)
        assert np.linalg.norm(strong.coefficients) < np.linalg.norm(
            weak.coefficients
        )

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            LogisticRegressionModel().predict(np.zeros((1, 2)))

    def test_rejects_bad_labels(self):
        model = LogisticRegressionModel()
        with pytest.raises(ValidationError):
            model.fit(np.zeros((2, 2)), [0, 1])


class TestRidgeRegression:
    def test_exact_on_noiseless_data(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(200, 3))
        theta_star = np.array([1.0, -2.0, 0.5])
        y = x @ theta_star
        model = RidgeRegressionModel(regularization=1e-8).fit(x, y)
        assert model.coefficients == pytest.approx(theta_star, abs=1e-4)

    def test_closed_form_matches_normal_equations(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(50, 2))
        y = rng.normal(size=50)
        lam = 0.3
        model = RidgeRegressionModel(regularization=lam).fit(x, y)
        n = len(y)
        expected = np.linalg.solve(
            x.T @ x / n + lam * np.eye(2), x.T @ y / n
        )
        assert model.coefficients == pytest.approx(expected)

    def test_mse_decreases_vs_zero_predictor(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(100, 2))
        y = x @ np.array([1.0, 1.0]) + 0.1 * rng.normal(size=100)
        model = RidgeRegressionModel(regularization=0.01).fit(x, y)
        assert model.mean_squared_error(x, y) < float((y**2).mean())

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            RidgeRegressionModel().predict(np.zeros((1, 2)))

    def test_rejects_row_mismatch(self):
        with pytest.raises(ValidationError):
            RidgeRegressionModel().fit(np.zeros((3, 2)), np.zeros(2))
