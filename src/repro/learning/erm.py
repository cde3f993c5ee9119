"""Empirical risk machinery over finite predictor grids.

The paper's Gibbs estimator lives on a measure over Θ. On a finite grid Θ
everything becomes exact: the empirical-risk *matrix* ``R̂[i, j]`` (risk of
predictor j on dataset i) is simultaneously the PAC-Bayes bound input, the
exponential-mechanism quality table, and the distortion matrix of the
rate–distortion formulation of Theorem 4.2. :class:`PredictorGrid` packages
a grid with its loss function, which is record-batched: ``loss(θ, records)``
scores every record of a stacked sample at once, so a risk vector costs one
loss call per grid point rather than one per record and grid point.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.exceptions import ValidationError


def empirical_risk(
    loss: Callable[[object, object], float], theta, sample: Sequence
) -> float:
    """``R̂_sample(θ) = (1/n) Σ loss(θ, zᵢ)``."""
    sample = list(sample)
    if not sample:
        raise ValidationError("sample must not be empty")
    return float(np.mean([float(loss(theta, z)) for z in sample]))


def empirical_risk_matrix(
    loss: Callable[[object, object], float],
    thetas: Sequence,
    datasets: Sequence[Sequence],
) -> np.ndarray:
    """Risk matrix ``R̂[i, j]`` of predictor ``thetas[j]`` on ``datasets[i]``.

    This is the distortion matrix ``d(Ẑ, θ)`` of Theorem 4.2's
    rate–distortion view, computed exactly.
    """
    thetas = list(thetas)
    datasets = [list(ds) for ds in datasets]
    if not thetas or not datasets:
        raise ValidationError("thetas and datasets must be nonempty")
    matrix = np.empty((len(datasets), len(thetas)))
    for i, dataset in enumerate(datasets):
        for j, theta in enumerate(thetas):
            matrix[i, j] = empirical_risk(loss, theta, dataset)
    return matrix


class PredictorGrid:
    """A finite predictor space Θ with its record-batched loss.

    Parameters
    ----------
    thetas:
        The grid of candidate predictors.
    loss:
        ``loss(theta, records) -> ndarray``: the per-record losses of one
        predictor on the stacked sample ``records`` (a float array of
        shape ``(n,)`` or ``(n, r)``, one row per record), returned with
        shape exactly ``(n,)`` and values in ``loss_bounds``.
    loss_bounds:
        ``(lo, hi)`` bound on the loss — gives the empirical risk its
        ``(hi-lo)/n`` sensitivity.
    """

    def __init__(
        self,
        thetas: Sequence,
        loss: Callable[[object, np.ndarray], np.ndarray],
        *,
        loss_bounds: tuple[float, float] = (0.0, 1.0),
    ) -> None:
        self.thetas = tuple(thetas)
        if not self.thetas:
            raise ValidationError("thetas must not be empty")
        lo, hi = float(loss_bounds[0]), float(loss_bounds[1])
        if not lo < hi:
            raise ValidationError("loss_bounds must satisfy lo < hi")
        self.loss = loss
        self.loss_bounds = (lo, hi)

    def __len__(self) -> int:
        return len(self.thetas)

    @property
    def loss_range(self) -> float:
        """Width ``hi - lo`` of the loss bounds."""
        return self.loss_bounds[1] - self.loss_bounds[0]

    def risk_sensitivity(self, n: int) -> float:
        """Sensitivity of ``R̂`` on size-n samples: ``loss_range / n``."""
        if n < 1:
            raise ValidationError("n must be >= 1")
        return self.loss_range / float(n)

    def empirical_risks(self, sample: Sequence) -> np.ndarray:
        """Vector ``R̂(θ)`` over the grid for one sample.

        The records are stacked once and the loss is called once per θ.
        The ``(n, k)`` loss matrix is summed down its rows in record order,
        the same additions a per-record running total makes: an in-place
        ``accumulate`` is sequential by definition, where ``reduce`` folds a
        single-column matrix into a pairwise sum and changes its bits.
        """
        try:
            records = np.asarray(sample, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                f"sample records must stack into a float array: {exc}"
            ) from None
        if records.ndim not in (1, 2):
            raise ValidationError(
                "sample must stack into shape (n,) or (n, r), "
                f"got {records.shape}"
            )
        n = records.shape[0]
        if n == 0:
            raise ValidationError("sample must not be empty")
        matrix = np.empty((n, len(self.thetas)))
        for j, theta in enumerate(self.thetas):
            losses = np.asarray(self.loss(theta, records), dtype=float)
            if losses.shape != (n,):
                raise ValidationError(
                    f"loss must return one value per record, shape ({n},); "
                    f"got {losses.shape}"
                )
            matrix[:, j] = losses
        lo, hi = self.loss_bounds
        if not np.all((matrix >= lo - 1e-12) & (matrix <= hi + 1e-12)):
            raise ValidationError(
                "loss left its declared bounds; sensitivity math would be wrong"
            )
        return np.add.accumulate(matrix, axis=0, out=matrix)[-1] / n

    def erm(self, sample: Sequence):
        """Grid ERM: the θ minimizing the empirical risk."""
        risks = self.empirical_risks(sample)
        return self.thetas[int(np.argmin(risks))]

    @classmethod
    def linspace(
        cls,
        loss: Callable[[float, np.ndarray], np.ndarray],
        low: float,
        high: float,
        size: int,
        *,
        loss_bounds: tuple[float, float] = (0.0, 1.0),
    ) -> "PredictorGrid":
        """Uniform 1-D grid of ``size`` predictors on ``[low, high]``."""
        if size < 2:
            raise ValidationError("size must be >= 2")
        if not low < high:
            raise ValidationError("low must be < high")
        return cls(np.linspace(low, high, size), loss, loss_bounds=loss_bounds)
