"""Rényi differential privacy (Mironov 2017) — the modern refinement.

The paper's max-divergence view of DP sits at the α=∞ end of the Rényi
divergence family; tracking the whole curve α ↦ D_α gives tighter
composition than (ε, δ) bookkeeping. Included as the natural extension of
the paper's information-theoretic framing: RDP *is* privacy measured in
Rényi information units.

A mechanism is (α, ρ)-RDP if ``D_α(M(D) ‖ M(D')) ≤ ρ`` for all neighbour
pairs. Facts implemented:

* pure ε-DP ⇒ (α, min(ε, 2αε²... )) — we use the simple ``(α, ε)`` and the
  tighter small-ε bound;
* Gaussian mechanism: (α, α·Δ²/(2σ²))-RDP, exactly;
* RDP composes additively in ρ at fixed α;
* (α, ρ)-RDP ⇒ (ρ + log(1/δ)/(α-1), δ)-DP for any δ.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.distributions.discrete import DiscreteDistribution
from repro.exceptions import ValidationError
from repro.information.divergences import _renyi_rows
from repro.mechanisms.base import PrivacySpec
from repro.privacy.audit import _neighbour_laws
from repro.utils.validation import check_in_range, check_positive


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not alpha > 1.0:
        raise ValidationError("RDP order alpha must be > 1")
    return alpha


@dataclass(frozen=True)
class RenyiSpec:
    """An (α, ρ) Rényi-DP guarantee."""

    alpha: float
    rho: float

    def __post_init__(self) -> None:
        _check_alpha(self.alpha)
        check_positive(self.rho, name="rho", strict=False)

    def compose(self, other: "RenyiSpec") -> "RenyiSpec":
        """Adaptive composition at a shared order: ρ values add."""
        if not np.isclose(self.alpha, other.alpha):
            raise ValidationError(
                "RDP composition requires a common order alpha"
            )
        return RenyiSpec(self.alpha, self.rho + other.rho)

    def to_approximate_dp(self, delta: float) -> PrivacySpec:
        """Convert to (ε, δ)-DP: ``ε = ρ + log(1/δ)/(α-1)``."""
        delta = check_in_range(
            delta, name="delta", low=0.0, high=1.0, inclusive=False
        )
        epsilon = self.rho + np.log(1.0 / delta) / (self.alpha - 1.0)
        return PrivacySpec(epsilon=float(epsilon), delta=delta)

    def __str__(self) -> str:
        return f"({self.alpha:.3g}, {self.rho:.6g})-RDP"


def rdp_of_pure_dp(epsilon: float, alpha: float) -> RenyiSpec:
    """The *exact* RDP curve implied by pure ε-DP.

    The worst case over all pairs of distributions with pointwise ratio
    in ``[e^{-ε}, e^{ε}]`` is the randomized-response pair
    ``(p, 1-p)`` vs ``(1-p, p)`` with ``p = e^ε/(1+e^ε)``, whose Rényi
    divergence has the closed form

        ``D_α = (1/(α-1)) · log( p^α (1-p)^{1-α} + (1-p)^α p^{1-α} )``,

    capped at ε (= D_∞). For small ε this behaves like ``α·ε²/2``, which
    is what makes RDP composition beat both basic and advanced
    composition in the many-queries regime.

    Parameters
    ----------
    epsilon:
        Pure-DP parameter being converted.
    alpha:
        Rényi order (> 1).
    """
    epsilon = check_positive(epsilon, name="epsilon")
    alpha = _check_alpha(alpha)
    from repro.utils.numerics import logsumexp

    log_p = -np.log1p(np.exp(-epsilon))  # log(e^ε/(1+e^ε))
    log_q = -np.log1p(np.exp(epsilon))  # log(1/(1+e^ε))
    log_value = logsumexp(
        [
            alpha * log_p + (1.0 - alpha) * log_q,
            alpha * log_q + (1.0 - alpha) * log_p,
        ]
    )
    rho = float(log_value / (alpha - 1.0))
    return RenyiSpec(alpha, min(epsilon, rho))


def rdp_of_gaussian(sensitivity: float, sigma: float, alpha: float) -> RenyiSpec:
    """Exact RDP of the Gaussian mechanism: ``ρ = α·Δ² / (2σ²)``.

    Parameters
    ----------
    sensitivity:
        L2 sensitivity Δ of the query.
    sigma:
        Noise standard deviation.
    alpha:
        Rényi order (> 1).
    """
    sensitivity = check_positive(sensitivity, name="sensitivity")
    sigma = check_positive(sigma, name="sigma")
    alpha = _check_alpha(alpha)
    return RenyiSpec(alpha, alpha * sensitivity**2 / (2.0 * sigma**2))


def rdp_of_laplace(sensitivity: float, scale: float, alpha: float) -> RenyiSpec:
    """Exact RDP of the Laplace mechanism (Mironov 2017, Prop. 6).

    With ε = Δ/b,  D_α = (1/(α-1)) · log[ (α/(2α-1))·e^{(α-1)ε}
                                          + ((α-1)/(2α-1))·e^{-αε} ].

    Parameters
    ----------
    sensitivity:
        L1 sensitivity Δ of the query.
    scale:
        Laplace scale b.
    alpha:
        Rényi order (> 1).
    """
    sensitivity = check_positive(sensitivity, name="sensitivity")
    scale = check_positive(scale, name="scale")
    alpha = _check_alpha(alpha)
    eps = sensitivity / scale
    value = (
        alpha / (2 * alpha - 1) * np.exp((alpha - 1) * eps)
        + (alpha - 1) / (2 * alpha - 1) * np.exp(-alpha * eps)
    )
    return RenyiSpec(alpha, float(np.log(value) / (alpha - 1)))


def compose_rdp(specs: Sequence[RenyiSpec]) -> RenyiSpec:
    """Compose many mechanisms at a shared order."""
    specs = list(specs)
    if not specs:
        raise ValidationError("need at least one RenyiSpec")
    total = specs[0]
    for spec in specs[1:]:
        total = total.compose(spec)
    return total


def optimal_rdp_to_dp(
    curve: Callable[[float], RenyiSpec],
    delta: float,
    *,
    alphas: Sequence[float] | None = None,
) -> PrivacySpec:
    """Minimize the converted ε over a grid of Rényi orders.

    ``curve(alpha)`` supplies the (α, ρ(α)) guarantee — e.g. the composed
    RDP of k Gaussian queries — and the best conversion order is selected
    numerically (the standard accountant move).

    Parameters
    ----------
    curve:
        Callable mapping a Rényi order α to its :class:`RenyiSpec`.
    delta:
        Target failure probability of the converted guarantee.
    alphas:
        Candidate orders (default: a 0.1-spaced grid over (1, 64)).
    """
    delta = check_in_range(
        delta, name="delta", low=0.0, high=1.0, inclusive=False
    )
    if alphas is None:
        alphas = list(np.arange(1.1, 64.0, 0.1))
    best: PrivacySpec | None = None
    for alpha in alphas:
        spec = curve(float(alpha)).to_approximate_dp(delta)
        if best is None or spec.epsilon < best.epsilon:
            best = spec
    assert best is not None
    return best


def measure_rdp(
    output_distribution: Callable[[Sequence], DiscreteDistribution],
    universe: Sequence,
    n: int,
    alpha: float,
) -> float:
    """Exact worst-case Rényi divergence of order α over neighbour pairs.

    The RDP analogue of :class:`repro.privacy.ExactPrivacyAuditor`: for
    discrete mechanisms this *measures* the (α, ρ) guarantee instead of
    assuming it.

    Parameters
    ----------
    output_distribution:
        Callable mapping a dataset to the mechanism's output law.
    universe:
        Record domain to enumerate datasets over.
    n:
        Dataset size.
    alpha:
        Rényi order (> 1).
    """
    alpha = _check_alpha(alpha)
    _, _, laws, left, right = _neighbour_laws(output_distribution, universe, n)
    losses = _renyi_rows(laws[left], laws[right], alpha)
    return max(0.0, float(losses.max(initial=-np.inf)))
