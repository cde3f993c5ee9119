"""Regularized exponential mechanism for private convex ERM in ``R^d``.

The grid learner (:mod:`repro.private_learning.exponential_learner`) pays a
discretization floor that grows exponentially in the dimension; this module
realizes the exponential mechanism *directly over* ``R^d`` following
Gopi–Lee–Liu (*Private Convex Optimization via Exponential Mechanism*):
sample

    θ  ∝  exp(-λ · (R̂(θ) + (Λ/2)·‖θ‖²))

where ``R̂`` is the empirical risk of a **bounded** margin loss and the
L2 regularizer acts as a data-independent Gaussian-like prior. With loss
range ``C`` the empirical risk has global sensitivity ``C/n``, so by
Theorem 4.1 of the paper the draw is ε-DP at temperature
``λ = ε·n/(2C)`` — over all of ``R^d``, no grid required.

Sampling uses :class:`repro.distributions.sampling.BatchedLangevinSampler`:
the log-density is ``λ``-strongly log-concave (the regularizer survives
truncation untouched), exactly the regime where MALA mixes fast. Batches
of releases advance all chains in lock-step as numpy array operations,
preserving the ``release_many`` stream-equivalence contract bit for bit.

As with :class:`repro.core.gibbs.ContinuousGibbsPosterior`, the stated ε
is exact for the target density; a finite chain is an approximation whose
bias shrinks with ``steps`` (see docs/SAMPLING.md for the argument sketch
and step-size guidance).
"""

from __future__ import annotations

import numpy as np

from repro.distributions.sampling import BatchedLangevinSampler, LangevinResult
from repro.exceptions import ValidationError
from repro.learning.losses import MarginLoss
from repro.learning.models import _check_classification_data
from repro.mechanisms.base import Mechanism, PrivacySpec
from repro.mechanisms.sensitivity import empirical_risk_sensitivity
from repro.utils.numerics import row_combinations, row_dots, row_sums
from repro.utils.validation import check_positive, check_random_state


class RegularizedExponentialMechanism(Mechanism):
    """ε-DP regularized ERM by sampling the Gibbs posterior over ``R^d``.

    ``release`` draws one θ from ``exp(-λ(R̂(θ) + (Λ/2)‖θ‖²))`` with the
    temperature λ calibrated per-dataset to ``ε·n/(2C)`` (Theorem 4.1,
    loss range ``C``); ``release_many`` draws a whole batch of chains in
    lock-step and stays bit-identical to sequential releases.

    Parameters
    ----------
    loss:
        A **bounded** :class:`~repro.learning.losses.MarginLoss` — wrap an
        unbounded loss in :class:`~repro.learning.losses.TruncatedLoss`.
        Boundedness is what caps the risk sensitivity at ``C/n`` and makes
        the mechanism private over the whole of ``R^d``.
    regularization:
        L2 parameter Λ > 0; the strong-convexity modulus of the target's
        negative log-density (per unit temperature), which both the
        privacy-utility trade-off and the sampler's mixing lean on.
    epsilon:
        Privacy parameter.
    steps:
        MALA steps per chain (doubles as burn-in; only final states are
        released).
    step_size:
        Optional Langevin step ``h``; when omitted a per-dataset heuristic
        targets the ~0.5–0.6 acceptance band (see docs/SAMPLING.md).
    """

    def __init__(
        self,
        loss: MarginLoss,
        regularization: float,
        epsilon: float,
        *,
        steps: int = 120,
        step_size: float | None = None,
    ) -> None:
        super().__init__(PrivacySpec(epsilon=epsilon))
        if not isinstance(loss, MarginLoss):
            raise ValidationError("loss must be a MarginLoss")
        bounds = loss.bounds()
        if bounds is None:
            raise ValidationError(
                "the regularized exponential mechanism requires a bounded "
                "loss (finite risk sensitivity); wrap the loss in "
                "TruncatedLoss to bound it"
            )
        self.loss = loss
        self.loss_range = check_positive(
            float(bounds[1] - bounds[0]), name="loss range"
        )
        self.regularization = check_positive(
            regularization, name="regularization"
        )
        if steps < 1:
            raise ValidationError("steps must be >= 1")
        self.steps = int(steps)
        self.step_size = (
            None
            if step_size is None
            else check_positive(step_size, name="step_size")
        )
        self.last_acceptance_rate: float | None = None
        # Internal sabotage knob for the statistical audit registry: the
        # effective temperature is multiplied by this factor, so values
        # > 1 deliberately overshoot the ε the mechanism claims.
        self._temperature_scale = 1.0

    def temperature_for(self, n: int) -> float:
        """The calibrated temperature ``λ = ε·n/(2C)`` for sample size n."""
        return self.epsilon / (
            2.0 * empirical_risk_sensitivity(self.loss_range, n)
        )

    def _default_step_size(self, temperature: float, dimension: int) -> float:
        """Heuristic ``h``: posterior scale times the MALA ``d^{-1/6}`` law.

        The target is ``λΛ``-strongly log-concave with smoothness at most
        ``λ(Λ + 1/4)`` for the margin losses in this package, so its
        tightest direction has scale ``(λ(Λ + 1/4))^{-1/2}``; optimal-
        scaling theory then shrinks the step like ``d^{-1/6}``. The
        leading constant is tuned empirically (the curvature bound is
        loose away from the decision boundary) to land acceptance in the
        ~0.4–0.8 band across the E17 grid.
        """
        scale = (temperature * (self.regularization + 0.25)) ** -0.5
        return 3.0 * scale * float(dimension) ** (-1.0 / 6.0)

    def _posterior_sampler(self, x, y) -> BatchedLangevinSampler:
        """Build the batched MALA sampler targeting this dataset's posterior.

        The returned sampler's target maps ``(m, d)`` states row-wise (no
        BLAS matmul, so row ``i`` of a batch is bit-identical to a
        one-chain evaluation) and computes the margins once for both the
        log-density and its gradient. Its contractions are
        :func:`~repro.utils.numerics.row_dots` and
        :func:`~repro.utils.numerics.row_combinations`: einsum's bits, by
        whole columns on the audit's small shapes. Handed the transpose
        of a ``(d, m)`` array, as the sampler does, it works along
        contiguous columns and returns a gradient backed by a ``(d, m)``
        array.
        """
        x, y = _check_classification_data(x, y)
        norms = np.linalg.norm(x, axis=1)
        if np.any(norms > 1.0 + 1e-9):
            raise ValidationError(
                "the regularized exponential mechanism requires feature "
                "vectors with ‖x‖₂ ≤ 1"
            )
        n, d = x.shape
        temperature = self.temperature_for(n) * self._temperature_scale
        z = y[:, None] * x
        loss = self.loss
        regularization = self.regularization

        def log_density_and_grad(theta: np.ndarray):
            if d > 2:
                # einsum over 3 or more columns, and numpy's sum over 8 or
                # more, add in an order that follows the memory layout.
                theta = np.ascontiguousarray(theta)
            margins = row_dots(theta, z)
            values, weights = loss.value_and_derivative(margins)
            squared_norms = row_sums(theta * theta)
            mean_values = row_sums(values) / values.shape[1]
            log_density = -temperature * (
                mean_values + 0.5 * regularization * squared_norms
            )
            risk_grad = row_combinations(weights, z) / n
            grad = -temperature * (risk_grad + regularization * theta)
            return log_density, grad

        step_size = (
            self._default_step_size(temperature, d)
            if self.step_size is None
            else self.step_size
        )
        return BatchedLangevinSampler(
            log_density_and_grad, d, step_size=step_size
        )

    def _sample_posterior(self, dataset, n_chains, rng) -> LangevinResult:
        """Run ``n_chains`` chains from the origin and keep diagnostics."""
        x, y = dataset
        sampler = self._posterior_sampler(x, y)
        result = sampler.run(
            n_chains, steps=self.steps, random_state=rng
        )
        self.last_acceptance_rate = result.acceptance_rate
        return result

    def release(self, dataset, random_state=None) -> np.ndarray:
        """``dataset`` is a pair ``(x, y)``; returns one sampled θ."""
        rng = check_random_state(random_state)
        return self._sample_posterior(dataset, 1, rng).samples[0]

    def _release_many(self, dataset, n, rng) -> np.ndarray:
        """Batch kernel: ``n`` chains advanced in lock-step, one per draw."""
        return self._sample_posterior(dataset, n, rng).samples


class GibbsERMClassifier(RegularizedExponentialMechanism):
    """ε-DP linear classifier — drop-in peer of the perturbation baselines.

    Same ``(loss, regularization, epsilon)`` constructor and
    ``fit``/``predict``/``accuracy``/``coefficients`` surface as
    :class:`~repro.private_learning.perturbation.OutputPerturbationClassifier`
    and
    :class:`~repro.private_learning.perturbation.ObjectivePerturbationClassifier`,
    but the private θ is a draw from the regularized exponential mechanism
    rather than a perturbed optimum. Experiment E17 compares the three
    across (ε, n, d). Construction is inherited unchanged; ``fit`` sets
    ``coefficients`` (``None`` until then).
    """

    coefficients: np.ndarray | None = None

    def fit(self, x, y, random_state=None) -> "GibbsERMClassifier":
        """Sample one θ from the regularized Gibbs posterior of (x, y)."""
        rng = check_random_state(random_state)
        self.coefficients = self._sample_posterior((x, y), 1, rng).samples[0]
        return self

    def predict(self, x) -> np.ndarray:
        """Predicted labels in {-1, +1}."""
        if self.coefficients is None:
            raise ValidationError("classifier has not been fitted")
        x = np.asarray(x, dtype=float)
        return np.where(x @ self.coefficients >= 0, 1, -1)

    def accuracy(self, x, y) -> float:
        """Fraction of correct predictions on (x, y)."""
        x, y = _check_classification_data(x, y)
        return float((self.predict(x) == y).mean())
