"""Differentially-private density estimation — the paper's other next step.

Section 5: "… and density estimation using PAC-Bayesian bounds." Two
routes over densities on [0, 1]:

* :class:`GibbsDensityEstimator` — the PAC-Bayes program: a finite family
  of candidate densities (discretized into bins), the *truncated negative
  log-likelihood* as the bounded loss, and the Gibbs estimator on top —
  Theorem 4.1 gives the privacy, Lemma 3.2 the bound-optimality;
* :class:`LaplaceHistogramDensity` — the classical comparator: Laplace
  noise on histogram counts (sensitivity 2 under substitution), clip and
  renormalize.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.gibbs import GibbsEstimator
from repro.distributions.continuous import LaplaceNoise
from repro.exceptions import NotFittedError, ValidationError
from repro.learning.erm import PredictorGrid
from repro.mechanisms.base import Mechanism, PrivacySpec
from repro.utils.validation import check_positive, check_random_state


def _check_unit_interval(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValidationError("data must be a nonempty 1-D array")
    if np.any((arr < 0) | (arr > 1)):
        raise ValidationError("data must lie in [0, 1]")
    return arr


def _bin_index(values: np.ndarray, bins: int) -> np.ndarray:
    return np.clip((values * bins).astype(int), 0, bins - 1)


def beta_shape_family(bins: int, shapes: Sequence[tuple[float, float]]) -> list:
    """Candidate densities: Beta(a, b) shapes discretized to ``bins`` bins.

    Each candidate is a tuple of bin probabilities (summing to 1), floored
    away from zero so the log-likelihood stays finite.

    Parameters
    ----------
    bins:
        Histogram resolution of each candidate.
    shapes:
        Beta (a, b) parameter pairs, one candidate per pair.
    """
    if bins < 2:
        raise ValidationError("bins must be >= 2")
    edges = np.linspace(0.0, 1.0, bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    family = []
    for a, b in shapes:
        if a <= 0 or b <= 0:
            raise ValidationError("Beta shape parameters must be > 0")
        weights = centers ** (a - 1) * (1.0 - centers) ** (b - 1)
        weights = np.clip(weights, 1e-6, None)
        family.append(tuple(weights / weights.sum()))
    return family


def default_beta_shapes() -> list[tuple[float, float]]:
    """A 24-member (a, b) grid covering flat, skewed and peaked shapes."""
    values = [0.5, 1.0, 2.0, 4.0, 8.0]
    shapes = [(a, b) for a in values for b in values if (a, b) != (0.5, 0.5)]
    return shapes


class GibbsDensityEstimator(Mechanism):
    """ε-DP density estimation via the Gibbs estimator over a family.

    Loss of candidate f on observation z: ``min(-log f̂(bin(z)),
    loss_ceiling)`` where f̂ is the candidate's bin probability — bounded,
    so the Gibbs machinery applies verbatim.

    Parameters
    ----------
    epsilon, sample_size:
        Privacy target and the n it is calibrated for.
    bins:
        Histogram resolution of the candidate densities.
    shapes:
        Beta (a, b) parameters of the candidate family (default: a 24-grid).
    loss_ceiling:
        Truncation of the negative log-likelihood.
    """

    def __init__(
        self,
        epsilon: float,
        sample_size: int,
        *,
        bins: int = 16,
        shapes: Sequence[tuple[float, float]] | None = None,
        loss_ceiling: float = 8.0,
    ) -> None:
        super().__init__(PrivacySpec(epsilon=epsilon))
        self.bins = int(bins)
        self.loss_ceiling = check_positive(loss_ceiling, name="loss_ceiling")
        if shapes is None:
            shapes = default_beta_shapes()
        self.candidates = beta_shape_family(self.bins, shapes)

        def loss(candidate, z):
            probs = np.asarray(candidate)
            # Density value = bin probability × bins (bin width 1/bins).
            density = probs[_bin_index(z, self.bins)] * self.bins
            return np.minimum(-np.log(np.maximum(density, 1e-300)), self.loss_ceiling)

        grid = PredictorGrid(
            self.candidates, loss, loss_bounds=(-np.log(self.bins) - 1e-9, self.loss_ceiling)
        )
        self.estimator = GibbsEstimator.from_privacy(grid, epsilon, sample_size)
        self.bin_probabilities: np.ndarray | None = None

    @property
    def temperature(self) -> float:
        """Gibbs temperature β the privacy calibration produced."""
        return self.estimator.temperature

    def release(self, dataset, random_state=None) -> np.ndarray:
        """Fit and return the sampled candidate's bin probabilities."""
        return self.fit(dataset, random_state=random_state).bin_probabilities

    def fit(self, data, random_state=None) -> "GibbsDensityEstimator":
        """Sample one candidate density from the Gibbs posterior."""
        data = _check_unit_interval(data)
        rng = check_random_state(random_state)
        candidate = self.estimator.release(list(data), random_state=rng)
        self.bin_probabilities = np.asarray(candidate, dtype=float)
        return self

    def output_distribution(self, data):
        """Exact Gibbs posterior over the candidate family."""
        data = _check_unit_interval(data)
        return self.estimator.output_distribution(list(data))

    def pdf(self, points) -> np.ndarray:
        """Estimated density at the given points in [0, 1]."""
        if self.bin_probabilities is None:
            raise NotFittedError("GibbsDensityEstimator has not been fitted")
        points = _check_unit_interval(points)
        return self.bin_probabilities[_bin_index(points, self.bins)] * self.bins

    def total_variation_to(self, bin_probabilities) -> float:
        """TV distance between the fit and a reference binned density."""
        if self.bin_probabilities is None:
            raise NotFittedError("GibbsDensityEstimator has not been fitted")
        reference = np.asarray(bin_probabilities, dtype=float)
        if reference.shape != self.bin_probabilities.shape:
            raise ValidationError("reference has the wrong number of bins")
        return float(0.5 * np.abs(self.bin_probabilities - reference).sum())


class LaplaceHistogramDensity(Mechanism):
    """ε-DP histogram density: Laplace noise on counts, clip, renormalize.

    Substituting one record moves at most two bin counts by one each, so
    the counts vector has L1 sensitivity 2 and per-bin noise
    ``Lap(2/ε)`` suffices.

    Parameters
    ----------
    epsilon:
        Privacy parameter.
    bins:
        Histogram resolution.
    """

    def __init__(self, epsilon: float, *, bins: int = 16) -> None:
        super().__init__(PrivacySpec(epsilon=epsilon))
        if bins < 2:
            raise ValidationError("bins must be >= 2")
        self.bins = int(bins)
        self.noise = LaplaceNoise(scale=2.0 / self.epsilon)
        self.bin_probabilities: np.ndarray | None = None

    def release(self, dataset, random_state=None) -> np.ndarray:
        """Fit and return the renormalized noisy bin probabilities."""
        return self.fit(dataset, random_state=random_state).bin_probabilities

    def fit(self, data, random_state=None) -> "LaplaceHistogramDensity":
        """Noise the histogram counts, clip at zero and renormalize."""
        data = _check_unit_interval(data)
        rng = check_random_state(random_state)
        counts = np.bincount(
            _bin_index(data, self.bins), minlength=self.bins
        ).astype(float)
        noisy = counts + self.noise.sample(size=self.bins, random_state=rng)
        noisy = np.clip(noisy, 0.0, None)
        total = noisy.sum()
        if total <= 0:
            # All mass noised away: fall back to the uniform histogram.
            self.bin_probabilities = np.full(self.bins, 1.0 / self.bins)
        else:
            self.bin_probabilities = noisy / total
        return self

    def pdf(self, points) -> np.ndarray:
        """Estimated density at the given points in [0, 1]."""
        if self.bin_probabilities is None:
            raise NotFittedError("LaplaceHistogramDensity has not been fitted")
        points = _check_unit_interval(points)
        return self.bin_probabilities[_bin_index(points, self.bins)] * self.bins

    def total_variation_to(self, bin_probabilities) -> float:
        """TV distance between the fit and a reference binned density."""
        if self.bin_probabilities is None:
            raise NotFittedError("LaplaceHistogramDensity has not been fitted")
        reference = np.asarray(bin_probabilities, dtype=float)
        if reference.shape != self.bin_probabilities.shape:
            raise ValidationError("reference has the wrong number of bins")
        return float(0.5 * np.abs(self.bin_probabilities - reference).sum())


def discretize_density(pdf, bins: int, *, resolution: int = 1000) -> np.ndarray:
    """Bin probabilities of a reference pdf on [0, 1] (for TV comparisons).

    Parameters
    ----------
    pdf:
        Scalar density function on [0, 1].
    bins:
        Number of equal-width bins.
    resolution:
        Midpoint-rule evaluation points used for the integration.
    """
    if bins < 2:
        raise ValidationError("bins must be >= 2")
    xs = np.linspace(0.0, 1.0, resolution, endpoint=False) + 0.5 / resolution
    values = np.asarray([float(pdf(x)) for x in xs])
    if np.any(values < 0):
        raise ValidationError("pdf must be nonnegative")
    indices = _bin_index(xs, bins)
    masses = np.zeros(bins)
    np.add.at(masses, indices, values)
    total = masses.sum()
    if total <= 0:
        raise ValidationError("pdf integrates to zero on [0, 1]")
    return masses / total
