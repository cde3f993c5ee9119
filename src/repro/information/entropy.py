"""Shannon entropy on finite supports (natural logarithms throughout).

Values are in nats. :func:`entropy` accepts either a raw probability
vector or a :class:`repro.distributions.DiscreteDistribution`.
"""

from __future__ import annotations

import numpy as np

from repro.distributions.discrete import DiscreteDistribution
from repro.utils.numerics import xlogx
from repro.utils.validation import check_probability_vector


def _as_probability_vector(dist) -> np.ndarray:
    if isinstance(dist, DiscreteDistribution):
        return dist.probabilities
    return check_probability_vector(dist)


def entropy(dist) -> float:
    """Shannon entropy ``H(p) = -Σ p log p`` in nats."""
    probs = _as_probability_vector(dist)
    return float(-xlogx(probs).sum())
