"""Shannon entropies on finite supports (natural logarithms throughout).

All quantities are in nats. Functions accept either raw probability vectors
/ matrices or :class:`repro.distributions.DiscreteDistribution` instances.
"""

from __future__ import annotations

import numpy as np

from repro.distributions.discrete import DiscreteDistribution
from repro.exceptions import ValidationError
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


def joint_entropy(joint) -> float:
    """Entropy of a joint PMF given as a nonnegative matrix summing to one."""
    joint = np.asarray(joint, dtype=float)
    if joint.ndim != 2:
        raise ValidationError("joint must be a 2-D matrix")
    if np.any(joint < 0) or not np.isclose(joint.sum(), 1.0, atol=1e-8):
        raise ValidationError("joint must be a probability matrix summing to 1")
    return float(-xlogx(joint).sum())

