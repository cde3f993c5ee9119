"""Duchi–Jordan–Wainwright sampling mechanisms for continuous records.

The minimax-optimal local randomizers for mean estimation privatize a
bounded vector by (1) randomized-rounding it to the boundary of its norm
ball, (2) drawing a uniform point of that boundary, and (3) keeping the
point on the same side as the rounded record with probability
``e^ε/(e^ε+1)``, flipping it otherwise. Rescaling by the closed-form
constant ``B = (e^ε+1)/((e^ε-1)·κ_d)`` makes the output an unbiased,
exactly ε-LDP estimate of the record whose second moment ``B²`` matches
the DJW lower-bound scaling ``d/ε²`` — the source of the minimax-rate
degradation Experiment E18 measures.

* :class:`L2SamplingMechanism` — records in the unit ℓ2 ball; outputs a
  scaled uniform halfsphere point (DJW 2013, §4.2.2).
* :class:`LInfSamplingMechanism` — records in the unit ℓ∞ ball; outputs
  a scaled hypercube corner, with boundary ties broken by a fair coin so
  the guarantee is exactly ε for every dimension.

Both consume the generator in fixed-width uniform blocks per record
(normals come from the inverse CDF), so :meth:`privatize_many` draws one
``uniform(size=(n, width))`` block and stays bit-identical to the
sequential per-record loop.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ValidationError
from repro.mechanisms.base import PrivacySpec
from repro.privacy.local import LocalMechanism
from repro.utils.validation import check_positive, check_random_state

#: Tolerance on the norm constraint, matching the ERM classifiers.
_NORM_TOLERANCE = 1e-9


def sphere_unbiasing_constant(dimension: int) -> float:
    """``κ_d = E|⟨u, v⟩|`` for ``u`` uniform on the unit sphere.

    The mean absolute projection of a uniform sphere point onto any unit
    vector: ``2Γ(d/2) / ((d-1)√π·Γ((d-1)/2))`` for d ≥ 2 and 1 for
    d = 1. Dividing the keep-probability margin by κ_d is what makes the
    ℓ2 sampling mechanism unbiased.

    Parameters
    ----------
    dimension:
        Ambient dimension d ≥ 1.
    """
    d = _check_dimension(dimension)
    if d == 1:
        return 1.0
    log_kappa = (
        math.log(2.0 / (d - 1))
        + math.lgamma(d / 2.0)
        - math.lgamma((d - 1) / 2.0)
        - 0.5 * math.log(math.pi)
    )
    return float(math.exp(log_kappa))


def hypercube_unbiasing_constant(dimension: int) -> float:
    """``κ_d = E|Σᵢ rᵢ|/d`` for independent Rademacher signs ``rᵢ``.

    Equals ``2^{1-d}·C(d-1, ⌊(d-1)/2⌋)`` — the mean absolute coordinate
    alignment between a uniform hypercube corner and any fixed corner.
    Dividing by κ_d unbiases the ℓ∞ sampling mechanism.

    Parameters
    ----------
    dimension:
        Ambient dimension d ≥ 1.
    """
    d = _check_dimension(dimension)
    m = (d - 1) // 2
    log_comb = (
        math.lgamma(d) - math.lgamma(m + 1) - math.lgamma(d - m)
    )
    return float(math.exp(log_comb - (d - 1) * math.log(2.0)))


def _check_dimension(dimension) -> int:
    if not isinstance(dimension, (int, np.integer)) or isinstance(dimension, bool):
        raise ValidationError(f"dimension must be an integer, got {dimension!r}")
    dimension = int(dimension)
    if dimension < 1:
        raise ValidationError(f"dimension must be >= 1, got {dimension}")
    return dimension


class _SamplingMechanism(LocalMechanism):
    """Shared geometry-independent pieces of the two DJW randomizers."""

    #: Uniform doubles consumed per record, set by each subclass.
    _draw_width: int = 0

    def __init__(self, dimension: int, epsilon: float, kappa: float) -> None:
        super().__init__(PrivacySpec(epsilon=epsilon))
        self.dimension = _check_dimension(dimension)
        # e^ε/(e^ε+1) via the stable sigmoid.
        self.keep_probability = float(1.0 / (1.0 + np.exp(-epsilon)))
        self.unbiasing_constant = float(kappa)
        # B = (e^ε+1)/((e^ε-1)·κ_d) = 1/(tanh(ε/2)·κ_d).
        self.scale = float(1.0 / (np.tanh(epsilon / 2.0) * kappa))

    def _check_vector(self, record) -> np.ndarray:
        """Validate one record against the mechanism's domain.

        Parameters
        ----------
        record:
            Candidate record; must be a finite length-d vector inside
            the mechanism's norm ball.
        """
        arr = np.asarray(record, dtype=float)
        if arr.shape != (self.dimension,):
            raise ValidationError(
                f"record must have shape ({self.dimension},), got {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise ValidationError("record must be finite")
        self._check_norm(arr[None, :])
        return arr

    def _check_matrix(self, records) -> np.ndarray:
        """Validate a batch of records as an ``(n, d)`` float matrix.

        Parameters
        ----------
        records:
            Batch of candidate records.
        """
        arr = np.asarray(records, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != self.dimension:
            raise ValidationError(
                f"records must have shape (n, {self.dimension}), got {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise ValidationError("records must be finite")
        self._check_norm(arr)
        return arr

    def _check_norm(self, matrix: np.ndarray) -> None:
        """Subclass hook: reject rows outside the mechanism's norm ball.

        Parameters
        ----------
        matrix:
            Already-validated ``(n, d)`` float matrix.
        """
        raise NotImplementedError

    def per_record_second_moment(self) -> float:
        """``E‖Z‖²`` of one privatized record (subclass closed form)."""
        raise NotImplementedError

    def predicted_mean_squared_error(self, n: int) -> float:
        """Worst-case MSE ``E‖Z̄ - μ‖²`` of the mean of n reports.

        The output is unbiased, so the error is pure variance:
        ``(E‖Z‖² - ‖x‖²)/n ≤ E‖Z‖²/n`` per record — the quantity whose
        ``d/(nε²)`` scaling is the DJW minimax rate.

        Parameters
        ----------
        n:
            Number of privatized records averaged.
        """
        if n < 1:
            raise ValidationError("n must be >= 1")
        return self.per_record_second_moment() / float(n)

    def privatize(self, record, random_state=None) -> np.ndarray:
        """Privatize one vector with one ``uniform(size=width)`` block.

        Parameters
        ----------
        record:
            Length-d vector inside the mechanism's norm ball.
        random_state:
            Seed or :class:`numpy.random.Generator` for the draw.
        """
        arr = self._check_vector(record)
        rng = check_random_state(random_state)
        u = rng.uniform(size=self._draw_width)
        return self._kernel(arr[None, :], u[None, :])[0]

    def _privatize_many(self, records, rng) -> np.ndarray:
        """Vectorized kernel: one ``uniform(size=(n, width))`` block.

        Parameters
        ----------
        records:
            ``(n, d)`` record matrix already validated by
            :meth:`_check_records`.
        rng:
            A ready :class:`numpy.random.Generator`.
        """
        u = rng.uniform(size=(records.shape[0], self._draw_width))
        return self._kernel(records, u)

    def _check_records(self, records):
        """Materialize the batch as a validated matrix (overrides base).

        Parameters
        ----------
        records:
            Candidate batch of records.
        """
        matrix = self._check_matrix(records)
        if matrix.shape[0] == 0:
            raise ValidationError("records must not be empty")
        return matrix

    def _kernel(self, matrix: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Subclass hook: map records + uniforms to privatized outputs.

        Parameters
        ----------
        matrix:
            Validated ``(n, d)`` records.
        u:
            ``(n, width)`` uniform draws, one row per record.
        """
        raise NotImplementedError


class L2SamplingMechanism(_SamplingMechanism):
    """ε-LDP unbiased release of a vector in the unit ℓ2 ball (DJW).

    The record is randomized-rounded to the unit sphere (``v = ±x/‖x‖``
    with the sign biased so ``E[v] = x``), a uniform sphere point is
    drawn, and with probability ``e^ε/(e^ε+1)`` the point is reflected
    onto the halfsphere containing ``v`` (otherwise onto the opposite
    one). The output is the point scaled by ``B = 1/(tanh(ε/2)·κ_d)``:
    exactly ε-LDP (the output density ratio between any two records is
    ``e^ε``), unbiased, with ``‖Z‖ ≡ B ≍ √d/ε`` — hence mean-estimation
    MSE ``≍ d/(nε²)``, the minimax-optimal local rate.

    Parameters
    ----------
    dimension:
        Ambient dimension d of the records.
    epsilon:
        Per-record local privacy parameter.
    """

    def __init__(self, dimension: int, epsilon: float) -> None:
        epsilon = check_positive(epsilon, name="epsilon")
        super().__init__(
            dimension, epsilon, sphere_unbiasing_constant(dimension)
        )
        # Per record: d inverse-CDF normals (direction), one rounding
        # coin, one side coin.
        self._draw_width = self.dimension + 2

    def _check_norm(self, matrix: np.ndarray) -> None:
        """Reject rows with ℓ2 norm above 1 (+ tolerance).

        Parameters
        ----------
        matrix:
            Already-validated ``(n, d)`` float matrix.
        """
        norms = np.sqrt((matrix * matrix).sum(axis=1))
        if np.any(norms > 1.0 + _NORM_TOLERANCE):
            raise ValidationError(
                "L2SamplingMechanism requires records with ‖x‖₂ ≤ 1"
            )

    def per_record_second_moment(self) -> float:
        """``E‖Z‖² = B²`` — every output lies on the radius-B sphere."""
        return self.scale**2

    def _kernel(self, matrix: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Shared scalar/batch kernel (identical elementwise arithmetic).

        Parameters
        ----------
        matrix:
            Validated ``(n, d)`` records.
        u:
            ``(n, d+2)`` uniform draws, one row per record.
        """
        from scipy.special import ndtri

        d = self.dimension
        # uniform() can return exactly 0.0, and ndtri(0) = -inf would
        # turn the direction into inf/inf = NaN; clamp to the smallest
        # normal double, which leaves every other draw unchanged.
        gauss = ndtri(np.maximum(u[:, :d], np.finfo(float).tiny))
        gauss_norms = np.sqrt((gauss * gauss).sum(axis=1))
        # A zero normal vector has probability zero; fall back to e₁.
        degenerate = gauss_norms == 0.0
        if np.any(degenerate):
            gauss[degenerate, 0] = 1.0
            gauss_norms[degenerate] = 1.0
        direction = gauss / gauss_norms[:, None]
        record_norms = np.sqrt((matrix * matrix).sum(axis=1))
        # Randomized rounding to the sphere: v = ±x/‖x‖ with
        # P(+) = (1+‖x‖)/2, so E[v] = x; the origin rounds to ±e₁.
        round_sign = np.where(
            u[:, d] < (1.0 + record_norms) / 2.0, 1.0, -1.0
        )
        safe_norms = np.where(record_norms == 0.0, 1.0, record_norms)
        rounded = matrix / safe_norms[:, None]
        zero_rows = record_norms == 0.0
        if np.any(zero_rows):
            rounded = rounded.copy()
            rounded[zero_rows] = 0.0
            rounded[zero_rows, 0] = 1.0
        rounded = rounded * round_sign[:, None]
        # Side of the drawn direction relative to v, and the desired side.
        alignment = (direction * rounded).sum(axis=1)
        side = np.where(alignment >= 0.0, 1.0, -1.0)
        desired = np.where(u[:, d + 1] < self.keep_probability, 1.0, -1.0)
        return self.scale * direction * (side * desired)[:, None]


class LInfSamplingMechanism(_SamplingMechanism):
    """ε-LDP unbiased release of a vector in the unit ℓ∞ ball (DJW).

    Each coordinate is randomized-rounded to ``±1`` (``P(+1) =
    (1+xⱼ)/2``), a uniform hypercube corner is drawn, its side relative
    to the rounded corner is its sign agreement (boundary ties broken by
    an independent fair coin, which keeps the guarantee exactly ε in
    even dimensions), and the corner is reflected onto the side chosen
    with probability ``e^ε/(e^ε+1)``. Scaling by
    ``B = 1/(tanh(ε/2)·κ_d)`` unbiases the output; ``‖Z‖₂ = B√d`` gives
    the ℓ∞-ball minimax scaling ``d²/(nε²)`` for the mean's squared ℓ2
    error.

    Parameters
    ----------
    dimension:
        Ambient dimension d of the records.
    epsilon:
        Per-record local privacy parameter.
    """

    def __init__(self, dimension: int, epsilon: float) -> None:
        epsilon = check_positive(epsilon, name="epsilon")
        super().__init__(
            dimension, epsilon, hypercube_unbiasing_constant(dimension)
        )
        # Per record: d rounding coins, d corner coins, one side coin,
        # one tie-breaking coin.
        self._draw_width = 2 * self.dimension + 2

    def _check_norm(self, matrix: np.ndarray) -> None:
        """Reject rows with ℓ∞ norm above 1 (+ tolerance).

        Parameters
        ----------
        matrix:
            Already-validated ``(n, d)`` float matrix.
        """
        if np.any(np.abs(matrix) > 1.0 + _NORM_TOLERANCE):
            raise ValidationError(
                "LInfSamplingMechanism requires records with ‖x‖∞ ≤ 1"
            )

    def per_record_second_moment(self) -> float:
        """``E‖Z‖² = B²·d`` — outputs are scaled hypercube corners."""
        return self.scale**2 * self.dimension

    def _kernel(self, matrix: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Shared scalar/batch kernel (identical elementwise arithmetic).

        Parameters
        ----------
        matrix:
            Validated ``(n, d)`` records.
        u:
            ``(n, 2d+2)`` uniform draws, one row per record.
        """
        d = self.dimension
        # Coordinatewise randomized rounding: E[v] = x.
        rounded = np.where(u[:, :d] < (1.0 + matrix) / 2.0, 1.0, -1.0)
        corner = np.where(u[:, d : 2 * d] < 0.5, 1.0, -1.0)
        agreement = (corner * rounded).sum(axis=1)
        tie = np.where(u[:, 2 * d + 1] < 0.5, 1.0, -1.0)
        side = np.where(agreement > 0.0, 1.0, np.where(agreement < 0.0, -1.0, tie))
        desired = np.where(u[:, 2 * d] < self.keep_probability, 1.0, -1.0)
        return self.scale * corner * (side * desired)[:, None]
