"""Loss functions with the metadata private learning needs.

Every loss carries, beyond its value, the analytic facts the privacy and
PAC-Bayes machinery consumes:

* ``lipschitz_constant`` — drives the sensitivity of regularized ERM
  (Chaudhuri et al.'s output/objective perturbation);
* ``bounds()`` — a loss bounded in ``[lo, hi]`` gives the empirical risk a
  global sensitivity of ``(hi - lo)/n``, which is the ``Δ(R̂)`` of
  Theorem 4.1;
* ``derivative`` / ``second_derivative`` — consumed by the optimizers.

Binary-classification losses use the *margin* form ``l(u)`` with
``u = y · ⟨θ, x⟩`` and labels in {-1, +1}; regression losses use the
residual form ``l(r)`` with ``r = ⟨θ, x⟩ - y``.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.validation import check_positive


class MarginLoss(abc.ABC):
    """A margin loss ``l(u)`` for binary classification, u = y·score."""

    @abc.abstractmethod
    def value(self, margins) -> np.ndarray:
        """Loss at each margin."""

    @abc.abstractmethod
    def derivative(self, margins) -> np.ndarray:
        """dl/du at each margin (a subgradient where nondifferentiable)."""

    def value_and_derivative(self, margins) -> tuple[np.ndarray, np.ndarray]:
        """``(value, derivative)`` at each margin, for callers that need both.

        Bit-identical to the two separate calls; losses whose derivative
        reuses work from the value override it to do that work once.
        """
        return self.value(margins), self.derivative(margins)

    def second_derivative(self, margins) -> np.ndarray:
        """d²l/du²; zero by default (piecewise-linear losses)."""
        return np.zeros_like(np.asarray(margins, dtype=float))

    @property
    @abc.abstractmethod
    def lipschitz_constant(self) -> float:
        """A global Lipschitz constant of ``l`` in its margin argument."""

    def bounds(self) -> tuple[float, float] | None:
        """``(lo, hi)`` if the loss is globally bounded, else None."""
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class ZeroOneLoss(MarginLoss):
    """The 0-1 loss ``1[u <= 0]`` — bounded in [0, 1] but not Lipschitz.

    This is the loss of the paper's generalization-bound experiments: with
    range 1 the empirical risk has sensitivity exactly ``1/n``.
    """

    def value(self, margins) -> np.ndarray:
        return (np.asarray(margins, dtype=float) <= 0).astype(float)

    def derivative(self, margins) -> np.ndarray:
        return np.zeros_like(np.asarray(margins, dtype=float))

    @property
    def lipschitz_constant(self) -> float:
        return float("inf")

    def bounds(self) -> tuple[float, float]:
        return (0.0, 1.0)


class LogisticLoss(MarginLoss):
    """Logistic loss ``log(1 + e^{-u})`` — 1-Lipschitz, smooth, unbounded."""

    def value(self, margins) -> np.ndarray:
        u = np.asarray(margins, dtype=float)
        # log(1 + e^{-u}) computed stably for both signs of u.
        t = np.log1p(np.exp(-np.abs(u)))
        return np.where(u > 0, t, -u + t)

    def derivative(self, margins) -> np.ndarray:
        u = np.asarray(margins, dtype=float)
        # -sigmoid(-u), computed stably.
        return -1.0 / (1.0 + np.exp(u))

    def second_derivative(self, margins) -> np.ndarray:
        u = np.asarray(margins, dtype=float)
        sig = 1.0 / (1.0 + np.exp(-np.abs(u)))
        return sig * (1.0 - sig)

    @property
    def lipschitz_constant(self) -> float:
        return 1.0


class HingeLoss(MarginLoss):
    """Hinge loss ``max(0, 1 - u)`` — 1-Lipschitz, nonsmooth at u = 1."""

    def value(self, margins) -> np.ndarray:
        return np.clip(1.0 - np.asarray(margins, dtype=float), 0.0, None)

    def derivative(self, margins) -> np.ndarray:
        return np.where(np.asarray(margins, dtype=float) < 1.0, -1.0, 0.0)

    @property
    def lipschitz_constant(self) -> float:
        return 1.0


class HuberHingeLoss(MarginLoss):
    """Chaudhuri et al.'s Huber-smoothed hinge, differentiable everywhere.

    ``l(u) = 0`` for u > 1+h, quadratic on ``[1-h, 1+h]``, linear below —
    the smoothing objective perturbation requires (it needs a twice-
    differentiable loss).
    """

    def __init__(self, smoothing: float = 0.5) -> None:
        self.smoothing = check_positive(smoothing, name="smoothing")

    def value(self, margins) -> np.ndarray:
        u = np.asarray(margins, dtype=float)
        h = self.smoothing
        out = np.zeros_like(u)
        quad = (np.abs(1.0 - u) <= h)
        out[quad] = (1.0 + h - u[quad]) ** 2 / (4.0 * h)
        lin = u < 1.0 - h
        out[lin] = 1.0 - u[lin]
        return out

    def derivative(self, margins) -> np.ndarray:
        u = np.asarray(margins, dtype=float)
        h = self.smoothing
        out = np.zeros_like(u)
        quad = (np.abs(1.0 - u) <= h)
        out[quad] = -(1.0 + h - u[quad]) / (2.0 * h)
        out[u < 1.0 - h] = -1.0
        return out

    def second_derivative(self, margins) -> np.ndarray:
        u = np.asarray(margins, dtype=float)
        h = self.smoothing
        return np.where(np.abs(1.0 - u) <= h, 1.0 / (2.0 * h), 0.0)

    @property
    def lipschitz_constant(self) -> float:
        return 1.0

    def __repr__(self) -> str:
        return f"HuberHingeLoss(smoothing={self.smoothing:.4g})"


class RegressionLoss(abc.ABC):
    """A residual loss ``l(r)`` with r = prediction - target."""

    @abc.abstractmethod
    def value(self, residuals) -> np.ndarray:
        """Loss at each residual."""

    @abc.abstractmethod
    def derivative(self, residuals) -> np.ndarray:
        """dl/dr at each residual."""

    @property
    @abc.abstractmethod
    def lipschitz_constant(self) -> float:
        """Global Lipschitz constant in r (may be inf)."""

    def bounds(self) -> tuple[float, float] | None:
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SquaredLoss(RegressionLoss):
    """Squared loss ``r²`` (½-free convention)."""

    def value(self, residuals) -> np.ndarray:
        r = np.asarray(residuals, dtype=float)
        return r * r

    def derivative(self, residuals) -> np.ndarray:
        return 2.0 * np.asarray(residuals, dtype=float)

    @property
    def lipschitz_constant(self) -> float:
        return float("inf")


class AbsoluteLoss(RegressionLoss):
    """Absolute loss ``|r|`` — 1-Lipschitz."""

    def value(self, residuals) -> np.ndarray:
        return np.abs(np.asarray(residuals, dtype=float))

    def derivative(self, residuals) -> np.ndarray:
        return np.sign(np.asarray(residuals, dtype=float))

    @property
    def lipschitz_constant(self) -> float:
        return 1.0


class TruncatedLoss(MarginLoss):
    """Clip any margin loss into ``[0, ceiling]`` to make it bounded.

    PAC-Bayes bounds (and the risk sensitivity of Theorem 4.1) need bounded
    losses; truncation is the standard device. The derivative is zeroed in
    the clipped region.
    """

    def __init__(self, base: MarginLoss, ceiling: float = 1.0) -> None:
        if not isinstance(base, MarginLoss):
            raise ValidationError("base must be a MarginLoss")
        self.base = base
        self.ceiling = check_positive(ceiling, name="ceiling")

    def value(self, margins) -> np.ndarray:
        return np.clip(self.base.value(margins), 0.0, self.ceiling)

    def derivative(self, margins) -> np.ndarray:
        return self.value_and_derivative(margins)[1]

    def value_and_derivative(self, margins) -> tuple[np.ndarray, np.ndarray]:
        """One ``base.value`` pass serves the clip and the derivative mask:
        the clipped value reaches the ceiling exactly where the raw one
        does."""
        value = self.value(margins)
        grad = self.base.derivative(margins)
        return value, np.where(value >= self.ceiling, 0.0, grad)

    @property
    def lipschitz_constant(self) -> float:
        return self.base.lipschitz_constant

    def bounds(self) -> tuple[float, float]:
        return (0.0, self.ceiling)

    def __repr__(self) -> str:
        return f"TruncatedLoss({self.base!r}, ceiling={self.ceiling:.4g})"
