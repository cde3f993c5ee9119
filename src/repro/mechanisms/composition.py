"""Composition theorems for differential privacy.

Sequential (basic) composition adds parameters; the advanced composition
theorem (Dwork, Rothblum, Vadhan) trades a small δ for a ~√k growth in ε
over k releases.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.exceptions import ValidationError
from repro.mechanisms.base import PrivacySpec
from repro.utils.validation import check_in_range, check_positive


def _specs(specs: Sequence[PrivacySpec]) -> list[PrivacySpec]:
    specs = list(specs)
    if not specs:
        raise ValidationError("need at least one PrivacySpec")
    for spec in specs:
        if not isinstance(spec, PrivacySpec):
            raise ValidationError("all entries must be PrivacySpec instances")
    return specs


def sequential_composition(specs: Sequence[PrivacySpec]) -> PrivacySpec:
    """Basic composition: run all mechanisms on the *same* data.

    ``(Σ εᵢ, Σ δᵢ)``-DP overall.
    """
    specs = _specs(specs)
    return PrivacySpec(
        epsilon=sum(s.epsilon for s in specs),
        delta=min(sum(s.delta for s in specs), 1.0),
    )


def advanced_composition(
    epsilon: float, delta: float, k: int, delta_prime: float
) -> PrivacySpec:
    """Advanced composition of ``k`` runs of one (ε, δ)-DP mechanism.

    The composite is ``(ε', kδ + δ')``-DP with

        ε' = ε·sqrt(2k ln(1/δ')) + k·ε·(e^ε - 1).

    Sublinear in k for small ε — the reason iterative private learning is
    feasible at all.

    Parameters
    ----------
    epsilon, delta:
        Per-mechanism guarantee.
    k:
        Number of sequential runs.
    delta_prime:
        Slack δ' spent to buy the sqrt(k) epsilon dependence.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    epsilon = check_positive(epsilon, name="epsilon")
    delta = check_in_range(delta, name="delta", low=0.0, high=1.0)
    delta_prime = check_in_range(
        delta_prime, name="delta_prime", low=0.0, high=1.0, inclusive=False
    )
    epsilon_total = epsilon * float(
        np.sqrt(2.0 * k * np.log(1.0 / delta_prime))
    ) + k * epsilon * (np.exp(epsilon) - 1.0)
    return PrivacySpec(
        epsilon=float(epsilon_total),
        delta=min(k * delta + delta_prime, 1.0),
    )

