"""The paper's generic private learner: a Gibbs estimator over a grid.

Where output/objective perturbation are hand-crafted for regularized convex
ERM, the exponential mechanism learns *any* predictor class with a bounded
loss — here, linear classifiers discretized to a finite grid of directions.
The 0-1 loss is fine (no convexity or smoothness needed), which is exactly
the generality claim of Sections 2–3 of the paper. The price is the grid's
discretization floor, visible in Experiment E7.
"""

from __future__ import annotations

import numpy as np

from repro.core.gibbs import GibbsEstimator
from repro.distributions.discrete import DiscreteDistribution
from repro.exceptions import ValidationError
from repro.learning.erm import PredictorGrid
from repro.mechanisms.base import Mechanism, PrivacySpec
from repro.utils.validation import check_random_state


def direction_grid(
    dimension: int, resolution: int, random_state=12345
) -> list[np.ndarray]:
    """Candidate unit-norm linear predictors.

    Parameters
    ----------
    dimension:
        Feature dimension d (>= 2).
    resolution:
        Number of candidate directions.
    random_state:
        Seed or Generator for the d > 2 construction. The fixed default
        keeps the grid deterministic — the grid is public, so this
        randomness carries no privacy budget.

    For d = 2, ``resolution`` equally-spaced directions on the circle; for
    higher d, a low-discrepancy set of unit vectors (Gaussian directions,
    normalized) of size ``resolution``. Degenerate draws — a (near-)zero
    Gaussian row, whose "direction" would be NaN, or an exact repeat of an
    earlier direction, which would silently double that predictor's prior
    mass — are discarded and redrawn, so the returned grid always holds
    ``resolution`` distinct unit vectors; a :class:`ValidationError` is
    raised if the generator cannot supply them (e.g. a stub RNG that only
    ever produces the same row). Healthy generators never hit either
    branch, so existing grids are unchanged.
    """
    if dimension < 2:
        raise ValidationError("dimension must be >= 2")
    if resolution < 2:
        raise ValidationError("resolution must be >= 2")
    if dimension == 2:
        angles = np.linspace(0.0, 2.0 * np.pi, resolution, endpoint=False)
        return [np.array([np.cos(a), np.sin(a)]) for a in angles]
    rng = check_random_state(random_state)
    directions: list[np.ndarray] = []
    seen: set[bytes] = set()
    for _ in range(100 * resolution):
        if len(directions) == resolution:
            break
        row = rng.normal(size=dimension)
        norm = np.linalg.norm(row)
        if norm < 1e-12:
            continue
        unit = row / norm
        key = unit.tobytes()
        if key in seen:
            continue
        seen.add(key)
        directions.append(unit)
    if len(directions) < resolution:
        raise ValidationError(
            f"could not draw {resolution} distinct unit directions in "
            f"dimension {dimension}: the generator keeps producing "
            "degenerate (zero-norm) or duplicate rows"
        )
    return directions


def _zero_one_loss(theta: np.ndarray, z: np.ndarray) -> np.ndarray:
    margins = z[:, -1] * (z[:, :-1] @ theta)
    return (margins <= 0).astype(float)


class ExponentialMechanismLearner(Mechanism):
    """ε-DP classification via the Gibbs estimator on a direction grid.

    Parameters
    ----------
    dimension:
        Feature dimension.
    epsilon:
        Privacy parameter; the Gibbs temperature is calibrated to it via
        Theorem 4.1 (``λ = ε·n/2`` for the 0-1 loss).
    sample_size:
        The n the temperature is calibrated for (privacy is per-size-n
        sample under substitution neighbours).
    resolution:
        Number of candidate directions — the ablation knob of E7.
    prior:
        Optional prior over the grid (uniform when omitted).
    """

    def __init__(
        self,
        dimension: int,
        epsilon: float,
        sample_size: int,
        *,
        resolution: int = 64,
        prior: DiscreteDistribution | None = None,
    ) -> None:
        super().__init__(PrivacySpec(epsilon=epsilon))
        self.directions = direction_grid(dimension, resolution)
        grid = PredictorGrid(
            [tuple(theta) for theta in self.directions],
            lambda theta, z: _zero_one_loss(np.asarray(theta), z),
            loss_bounds=(0.0, 1.0),
        )
        self.estimator = GibbsEstimator.from_privacy(
            grid, epsilon, sample_size, prior=prior
        )
        self.coefficients: np.ndarray | None = None

    @property
    def resolution(self) -> int:
        """Number of candidate directions in the grid."""
        return len(self.directions)

    @property
    def temperature(self) -> float:
        """The calibrated Gibbs temperature λ = ε·n/2."""
        return self.estimator.temperature

    @staticmethod
    def _as_sample(x, y) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y)
        if x.ndim != 2 or y.shape != (x.shape[0],):
            raise ValidationError("x must be 2-D with one label per row in y")
        return np.column_stack([x, y])

    def release(self, dataset, random_state=None) -> np.ndarray:
        """``dataset`` is a pair ``(x, y)``; returns the sampled direction."""
        x, y = dataset
        return self.fit(x, y, random_state=random_state).coefficients

    def fit(self, x, y, random_state=None) -> "ExponentialMechanismLearner":
        """Sample one direction from the Gibbs posterior of the sample."""
        rng = check_random_state(random_state)
        sample = self._as_sample(x, y)
        theta = self.estimator.release(sample, random_state=rng)
        self.coefficients = np.asarray(theta, dtype=float)
        return self

    def output_distribution(self, x, y) -> DiscreteDistribution:
        """Exact Gibbs posterior over the direction grid for (x, y)."""
        return self.estimator.output_distribution(self._as_sample(x, y))

    def predict(self, x) -> np.ndarray:
        """Predicted labels in {-1, +1}."""
        if self.coefficients is None:
            raise ValidationError("learner has not been fitted")
        x = np.asarray(x, dtype=float)
        return np.where(x @ self.coefficients >= 0, 1, -1)

    def accuracy(self, x, y) -> float:
        """Fraction of correct predictions on (x, y)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y)
        return float((self.predict(x) == y).mean())
