"""Differentially-private regression — the paper's announced next step.

Section 5: "We are currently investigating differentially-private
regression … using PAC-Bayesian bounds." Two routes implemented:

* :class:`GibbsRidgeRegression` — exactly the paper's program: the Gibbs
  estimator over a finite grid of coefficient vectors with a *truncated*
  squared loss (bounded loss ⇒ Theorem 4.1 privacy, PAC-Bayes
  certificates for free);
* :class:`SufficientStatisticsRidge` — the classical specialized
  comparator: perturb the sufficient statistics ``XᵀX`` and ``Xᵀy`` with
  Laplace noise and solve the noisy normal equations.

Standing assumptions (checked): ‖x‖₂ ≤ 1 and |y| ≤ y_bound.
"""

from __future__ import annotations

import numpy as np

from repro.core.gibbs import GibbsEstimator
from repro.distributions.continuous import LaplaceNoise
from repro.exceptions import NotFittedError, ValidationError
from repro.learning.erm import PredictorGrid
from repro.mechanisms.base import Mechanism, PrivacySpec
from repro.utils.validation import check_array, check_positive, check_random_state


def _check_regression_data(x, y, y_bound: float):
    x = check_array(x, name="x", ndim=2)
    y = check_array(y, name="y", ndim=1)
    if y.shape[0] != x.shape[0]:
        raise ValidationError("x and y must have the same number of rows")
    if np.any(np.linalg.norm(x, axis=1) > 1.0 + 1e-9):
        raise ValidationError("private regression requires ‖x‖₂ ≤ 1")
    if np.any(np.abs(y) > y_bound + 1e-9):
        raise ValidationError(f"targets must satisfy |y| ≤ {y_bound}")
    return x, y


def coefficient_grid(
    dimension: int, radius: float, points_per_axis: int
) -> list[tuple]:
    """A deterministic lattice of candidate coefficient vectors.

    Cartesian grid on ``[-radius, radius]^d`` — fine for the small d the
    Gibbs route targets; the lattice size grows as
    ``points_per_axis**dimension``.

    Parameters
    ----------
    dimension:
        Number of features d.
    radius:
        Half-width of the lattice along each axis.
    points_per_axis:
        Lattice resolution per axis.
    """
    if dimension < 1:
        raise ValidationError("dimension must be >= 1")
    if points_per_axis < 2:
        raise ValidationError("points_per_axis must be >= 2")
    radius = check_positive(radius, name="radius")
    axis = np.linspace(-radius, radius, points_per_axis)
    mesh = np.meshgrid(*([axis] * dimension), indexing="ij")
    stacked = np.stack([m.ravel() for m in mesh], axis=1)
    return [tuple(row) for row in stacked]


class GibbsRidgeRegression(Mechanism):
    """ε-DP regression via the Gibbs estimator over a coefficient lattice.

    The squared loss ``(⟨θ, x⟩ - y)²`` is clipped at ``loss_ceiling`` so
    the empirical risk has sensitivity ``loss_ceiling / n`` and
    Theorem 4.1 applies with temperature ``λ = ε·n / (2·loss_ceiling)``.

    Parameters
    ----------
    dimension:
        Number of features d.
    epsilon:
        Privacy parameter.
    sample_size:
        The n the temperature is calibrated for.
    radius / points_per_axis:
        Extent and resolution of the coefficient lattice.
    loss_ceiling:
        Truncation level of the squared loss (also the loss range).
    """

    def __init__(
        self,
        dimension: int,
        epsilon: float,
        sample_size: int,
        *,
        radius: float = 2.0,
        points_per_axis: int = 9,
        loss_ceiling: float = 4.0,
    ) -> None:
        super().__init__(PrivacySpec(epsilon=epsilon))
        self.loss_ceiling = check_positive(loss_ceiling, name="loss_ceiling")
        thetas = coefficient_grid(dimension, radius, points_per_axis)

        def loss(theta, z):
            residual = z[:, :-1] @ np.asarray(theta) - z[:, -1]
            return np.minimum(residual * residual, self.loss_ceiling)

        grid = PredictorGrid(thetas, loss, loss_bounds=(0.0, self.loss_ceiling))
        self.estimator = GibbsEstimator.from_privacy(
            grid, epsilon, sample_size
        )
        self.coefficients: np.ndarray | None = None

    @property
    def temperature(self) -> float:
        """Gibbs temperature β the privacy calibration produced."""
        return self.estimator.temperature

    @staticmethod
    def _as_sample(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.column_stack([x, y])

    def release(self, dataset, random_state=None) -> np.ndarray:
        """``dataset`` is a pair ``(x, y)``; returns the sampled θ."""
        x, y = dataset
        return self.fit(x, y, random_state=random_state).coefficients

    def fit(self, x, y, random_state=None) -> "GibbsRidgeRegression":
        """Sample one coefficient vector from the Gibbs posterior."""
        x, y = _check_regression_data(x, y, y_bound=np.inf)
        rng = check_random_state(random_state)
        theta = self.estimator.release(
            self._as_sample(x, y), random_state=rng
        )
        self.coefficients = np.asarray(theta, dtype=float)
        return self

    def output_distribution(self, x, y):
        """Exact Gibbs posterior over the lattice (for audits/utility)."""
        x, y = _check_regression_data(x, y, y_bound=np.inf)
        return self.estimator.output_distribution(self._as_sample(x, y))

    def predict(self, x) -> np.ndarray:
        """Predicted targets ``x @ θ``."""
        if self.coefficients is None:
            raise NotFittedError("GibbsRidgeRegression has not been fitted")
        return check_array(x, name="x", ndim=2) @ self.coefficients

    def mean_squared_error(self, x, y) -> float:
        """Mean squared prediction error on (x, y)."""
        y = check_array(y, name="y", ndim=1)
        residuals = self.predict(x) - y
        return float((residuals**2).mean())


class SufficientStatisticsRidge(Mechanism):
    """ε-DP ridge regression via perturbed sufficient statistics.

    Releases noisy versions of ``XᵀX`` (upper triangle) and ``Xᵀy`` with
    i.i.d. Laplace noise scaled to the joint L1 sensitivity, then solves
    the (PSD-projected) noisy normal equations. One record with ‖x‖ ≤ 1
    and |y| ≤ y_bound contributes at most ``d + √d·y_bound`` in L1 to the
    statistics, so a substitution moves them by at most twice that.

    Parameters
    ----------
    dimension:
        Number of features d.
    epsilon:
        Privacy parameter.
    regularization:
        Ridge parameter added after the PSD projection.
    y_bound:
        Assumed bound on |y| per record (enters the sensitivity).
    """

    def __init__(
        self,
        dimension: int,
        epsilon: float,
        *,
        regularization: float = 1e-2,
        y_bound: float = 1.0,
    ) -> None:
        super().__init__(PrivacySpec(epsilon=epsilon))
        if dimension < 1:
            raise ValidationError("dimension must be >= 1")
        self.dimension = int(dimension)
        self.regularization = check_positive(regularization, name="regularization")
        self.y_bound = check_positive(y_bound, name="y_bound")
        d = float(dimension)
        self.statistics_sensitivity = 2.0 * (d + np.sqrt(d) * self.y_bound)
        self.coefficients: np.ndarray | None = None

    def release(self, dataset, random_state=None) -> np.ndarray:
        """``dataset`` is a pair ``(x, y)``; returns the private θ."""
        x, y = dataset
        return self.fit(x, y, random_state=random_state).coefficients

    def fit(self, x, y, random_state=None) -> "SufficientStatisticsRidge":
        """Perturb XᵀX and Xᵀy, PSD-project, solve ridge normal equations."""
        x, y = _check_regression_data(x, y, self.y_bound)
        if x.shape[1] != self.dimension:
            raise ValidationError(
                f"expected {self.dimension} features, got {x.shape[1]}"
            )
        rng = check_random_state(random_state)
        n, d = x.shape

        noise = LaplaceNoise(scale=self.statistics_sensitivity / self.epsilon)
        gram = x.T @ x
        # Perturb the upper triangle once and mirror, keeping symmetry.
        upper = np.triu_indices(d)
        noisy_gram = gram.copy()
        noisy_gram[upper] += noise.sample(size=len(upper[0]), random_state=rng)
        noisy_gram = np.triu(noisy_gram) + np.triu(noisy_gram, 1).T
        noisy_cross = x.T @ y + noise.sample(size=d, random_state=rng)

        # PSD projection: clip negative eigenvalues so the ridge system is
        # well posed even when noise swamps the spectrum.
        eigenvalues, eigenvectors = np.linalg.eigh(noisy_gram)
        eigenvalues = np.clip(eigenvalues, 0.0, None)
        psd_gram = (eigenvectors * eigenvalues) @ eigenvectors.T

        system = psd_gram / n + self.regularization * np.eye(d)
        self.coefficients = np.linalg.solve(system, noisy_cross / n)
        return self

    def predict(self, x) -> np.ndarray:
        """Predicted targets ``x @ θ``."""
        if self.coefficients is None:
            raise NotFittedError(
                "SufficientStatisticsRidge has not been fitted"
            )
        return check_array(x, name="x", ndim=2) @ self.coefficients

    def mean_squared_error(self, x, y) -> float:
        """Mean squared prediction error on (x, y)."""
        y = check_array(y, name="y", ndim=1)
        residuals = self.predict(x) - y
        return float((residuals**2).mean())
