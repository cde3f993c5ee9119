"""Concrete learners: regularized logistic regression and ridge regression.

These are the non-private reference learners; their private counterparts
live in :mod:`repro.private_learning`. All linear classifiers use labels in
{-1, +1} and minimize

    J(θ) = (1/n) Σ l(yᵢ ⟨θ, xᵢ⟩) + (Λ/2) ‖θ‖²,

the regularized ERM objective whose minimizer has the bounded sensitivity
Chaudhuri et al.'s analysis requires.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import NotFittedError, ValidationError
from repro.learning.losses import LogisticLoss, MarginLoss
from repro.learning.optimize import gradient_descent, newton_method
from repro.utils.validation import check_array, check_positive


def _check_classification_data(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = check_array(x, name="x", ndim=2)
    y = np.asarray(y)
    if y.shape != (x.shape[0],):
        raise ValidationError("y must be a vector with one label per row of x")
    if not np.isin(y, (-1, 1)).all():
        raise ValidationError("labels must be in {-1, +1}")
    return x, y.astype(float)


class _LinearClassifier:
    """Shared machinery for L2-regularized linear margin classifiers."""

    def __init__(self, loss: MarginLoss, regularization: float) -> None:
        if not isinstance(loss, MarginLoss):
            raise ValidationError("loss must be a MarginLoss")
        self.loss = loss
        self.regularization = check_positive(regularization, name="regularization")
        self.coefficients: np.ndarray | None = None

    # -- objective pieces ------------------------------------------------
    def objective(self, theta: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
        margins = y * (x @ theta)
        data_term = float(self.loss.value(margins).mean())
        return data_term + 0.5 * self.regularization * float(theta @ theta)

    def gradient(self, theta: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        margins = y * (x @ theta)
        weights = self.loss.derivative(margins) * y
        return (x.T @ weights) / x.shape[0] + self.regularization * theta

    def hessian(self, theta: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        margins = y * (x @ theta)
        curvatures = self.loss.second_derivative(margins)
        weighted = x * curvatures[:, None]
        return (x.T @ weighted) / x.shape[0] + self.regularization * np.eye(
            x.shape[1]
        )

    # -- fit / predict ---------------------------------------------------
    def fit(self, x, y, *, use_newton: bool = True) -> "_LinearClassifier":
        """Fit by Newton (smooth losses) or gradient descent."""
        x, y = _check_classification_data(x, y)
        x0 = np.zeros(x.shape[1])
        if use_newton:
            result = newton_method(
                lambda t: self.objective(t, x, y),
                lambda t: self.gradient(t, x, y),
                lambda t: self.hessian(t, x, y),
                x0,
            )
        else:
            result = gradient_descent(
                lambda t: self.objective(t, x, y),
                lambda t: self.gradient(t, x, y),
                x0,
            )
        self.coefficients = result.x
        return self

    def _require_fitted(self) -> np.ndarray:
        if self.coefficients is None:
            raise NotFittedError(f"{type(self).__name__} has not been fitted")
        return self.coefficients

    def decision_function(self, x) -> np.ndarray:
        """Raw scores ``⟨θ, x⟩``."""
        theta = self._require_fitted()
        x = check_array(x, name="x", ndim=2)
        return x @ theta

    def predict(self, x) -> np.ndarray:
        """Predicted labels in {-1, +1} (ties resolved to +1)."""
        scores = self.decision_function(x)
        return np.where(scores >= 0, 1, -1)

    def accuracy(self, x, y) -> float:
        """Fraction of correct predictions."""
        x, y = _check_classification_data(x, y)
        return float((self.predict(x) == y).mean())

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(loss={self.loss!r}, "
            f"regularization={self.regularization:.4g})"
        )


class LogisticRegressionModel(_LinearClassifier):
    """L2-regularized logistic regression fitted by Newton's method."""

    def __init__(self, regularization: float = 1e-2) -> None:
        super().__init__(LogisticLoss(), regularization)

    def predict_probability(self, x) -> np.ndarray:
        """``P(y = +1 | x)`` under the fitted model."""
        scores = self.decision_function(x)
        return 1.0 / (1.0 + np.exp(-scores))


class RidgeRegressionModel:
    """L2-regularized least squares with a closed-form solution.

    Minimizes ``(1/n)‖Xθ - y‖² + Λ‖θ‖²`` via the normal equations.
    """

    def __init__(self, regularization: float = 1e-2) -> None:
        self.regularization = check_positive(regularization, name="regularization")
        self.coefficients: np.ndarray | None = None

    def fit(self, x, y) -> "RidgeRegressionModel":
        x = check_array(x, name="x", ndim=2)
        y = check_array(y, name="y", ndim=1)
        if y.shape[0] != x.shape[0]:
            raise ValidationError("x and y must have the same number of rows")
        n, d = x.shape
        gram = (x.T @ x) / n + self.regularization * np.eye(d)
        self.coefficients = np.linalg.solve(gram, (x.T @ y) / n)
        return self

    def predict(self, x) -> np.ndarray:
        if self.coefficients is None:
            raise NotFittedError("RidgeRegressionModel has not been fitted")
        x = check_array(x, name="x", ndim=2)
        return x @ self.coefficients

    def mean_squared_error(self, x, y) -> float:
        """Mean squared prediction error on (x, y)."""
        y = check_array(y, name="y", ndim=1)
        residuals = self.predict(x) - y
        return float((residuals**2).mean())

    def __repr__(self) -> str:
        return f"RidgeRegressionModel(regularization={self.regularization:.4g})"
