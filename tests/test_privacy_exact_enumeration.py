"""Bit identity of the stacked exact audit against per-pair reference loops.

``ExactPrivacyAuditor.audit``, ``measure_rdp`` and
``LearningChannel.exact_privacy_loss`` reduce one stacked (datasets ×
outputs) law matrix. The references below are the per-pair loops they
replaced, each with its own cache and the scalar divergence formulas
inlined, so the comparison does not route through the code under test.
Every comparison is ``==``, not ``approx``.
"""

import numpy as np
import pytest

from repro.core import GibbsEstimator, LearningChannel
from repro.distributions import DiscreteDistribution
from repro.learning import BernoulliTask, PredictorGrid
from repro.mechanisms import ExponentialMechanism, GeometricMechanism
from repro.privacy import (
    ExactPrivacyAuditor,
    all_neighbour_pairs,
    is_neighbour,
    measure_rdp,
)

ALPHAS = [1.5, 2.0, 8.0, np.inf]


# ----------------------------------------------------------------------
# Reference implementations: the per-pair loops and scalar formulas.
# ----------------------------------------------------------------------
def reference_max_divergence(p, q):
    mask = p > 0
    if np.any(q[mask] == 0):
        return float("inf")
    return float(np.max(np.log(p[mask]) - np.log(q[mask])))


def revalidated(p):
    """What the scalar α = ∞ branch used to compare: each law divided by
    its sum once more (it re-validated vectors that were already laws)."""
    return p / float(p.sum())


def reference_renyi(p, q, alpha, *, revalidate=False):
    if np.isinf(alpha):
        if revalidate:
            p, q = revalidated(p), revalidated(q)
        return reference_max_divergence(p, q)
    mask = p > 0
    if np.any(q[mask] == 0):
        return float("inf")
    log_terms = alpha * np.log(p[mask]) + (1.0 - alpha) * np.log(q[mask])
    peak = log_terms.max()
    total = np.exp(log_terms - peak).sum()
    return float((peak + np.log(total)) / (alpha - 1.0))


def reference_audit(output_distribution, universe, n, claimed_epsilon=None):
    worst, worst_pair, worst_output, pairs = 0.0, None, None, 0
    cache = {}

    def law(dataset):
        if dataset not in cache:
            cache[dataset] = output_distribution(list(dataset))
        return cache[dataset]

    for dataset, neighbour in all_neighbour_pairs(universe, n):
        pairs += 1
        p, q = law(dataset), law(neighbour)
        loss = reference_max_divergence(p.probabilities, q.probabilities)
        if loss > worst:
            worst = loss
            worst_pair = (dataset, neighbour)
            with np.errstate(invalid="ignore"):
                ratios = p.log_probabilities - q.log_probabilities
            finite = np.where(p.probabilities > 0, ratios, -np.inf)
            worst_output = p.support[int(np.argmax(finite))]
    satisfied = None
    if claimed_epsilon is not None:
        satisfied = worst <= claimed_epsilon + 1e-9
    return float(worst), worst_pair, worst_output, pairs, satisfied


def reference_rdp(output_distribution, universe, n, alpha, *, revalidate=False):
    worst = 0.0
    cache = {}

    def law(dataset):
        if dataset not in cache:
            cache[dataset] = output_distribution(list(dataset)).probabilities
        return cache[dataset]

    for a, b in all_neighbour_pairs(universe, n):
        loss = reference_renyi(law(a), law(b), alpha, revalidate=revalidate)
        worst = max(worst, loss)
    return worst


def reference_channel_loss(channel):
    worst = 0.0
    for a in channel.samples:
        law_a = channel.channel.conditional(a).probabilities
        for b in channel.samples:
            if is_neighbour(a, b):
                law_b = channel.channel.conditional(b).probabilities
                worst = max(worst, reference_max_divergence(law_a, law_b))
    return worst


def assert_bit_identical(output_distribution, universe, n, claimed_epsilon=None):
    report = ExactPrivacyAuditor(output_distribution).audit(
        universe, n, claimed_epsilon=claimed_epsilon
    )
    measured, pair, output, pairs, satisfied = reference_audit(
        output_distribution, universe, n, claimed_epsilon
    )
    assert report.measured_epsilon == measured
    assert report.worst_pair == pair
    assert report.worst_output == output
    assert report.pairs_checked == pairs
    assert report.satisfied == satisfied
    for alpha in ALPHAS:
        assert measure_rdp(output_distribution, universe, n, alpha) == (
            reference_rdp(output_distribution, universe, n, alpha)
        ), alpha
    # At α = ∞ the Rényi divergence is the audited ε, bit for bit. The old
    # α = ∞ branch first re-divided each law by its sum, which can move a
    # probability by an ulp and so each log-probability by ~2⁻⁵² absolute.
    at_infinity = measure_rdp(output_distribution, universe, n, np.inf)
    assert at_infinity == report.measured_epsilon
    revalidated_loss = reference_rdp(
        output_distribution, universe, n, np.inf, revalidate=True
    )
    assert np.isclose(
        at_infinity, revalidated_loss, rtol=0.0, atol=4 * np.finfo(float).eps
    )


# ----------------------------------------------------------------------
# The covered families.
# ----------------------------------------------------------------------
def bernoulli_grid():
    task = BernoulliTask(p=0.7)
    return PredictorGrid.linspace(task.loss, 0.0, 1.0, 5)


def count_query(dataset):
    return float(sum(dataset))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("epsilon", [0.1, 0.5, 1.0, 2.0, 5.0])
def test_e4_gibbs_grid(epsilon, n):
    estimator = GibbsEstimator.from_privacy(
        bernoulli_grid(), epsilon, expected_sample_size=n
    )
    assert_bit_identical(
        estimator.output_distribution, [0, 1], n, claimed_epsilon=epsilon
    )


@pytest.mark.parametrize("epsilon", [0.1, 0.5, 1.0, 2.0])
def test_e8_geometric_law(epsilon):
    geom = GeometricMechanism(count_query, 1.0, epsilon)
    support = range(-200, 204)

    def output_law(dataset):
        center = int(count_query(dataset))
        probs = np.array([np.exp(geom.noise_log_pmf(v - center)) for v in support])
        return DiscreteDistribution(list(support), probs / probs.sum())

    assert_bit_identical(output_law, [0, 1], 3, claimed_epsilon=epsilon)


@pytest.mark.parametrize("epsilon", [0.1, 0.5, 1.0, 2.0])
def test_e8_exponential_law(epsilon):
    mech = ExponentialMechanism(
        lambda d, u: -abs(sum(d) - u),
        outputs=range(4),
        sensitivity=1.0,
        epsilon=epsilon,
    )
    assert_bit_identical(
        mech.output_distribution, [0, 1], 3, claimed_epsilon=epsilon
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("epsilon", [0.05, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0])
def test_e1_channel(epsilon, n):
    grid = bernoulli_grid()
    data_law = DiscreteDistribution([0, 1], [1 - 0.7, 0.7])
    estimator = GibbsEstimator.from_privacy(grid, epsilon, expected_sample_size=n)
    channel = LearningChannel(data_law, n=n, posterior_map=estimator.gibbs.posterior)
    assert channel.exact_privacy_loss() == reference_channel_loss(channel)
    assert_bit_identical(
        lambda sample: channel.channel.conditional(tuple(sample)), [0, 1], n
    )


def test_small_law_with_a_zero_mass_atom():
    def output_law(dataset):
        probs = [0.25, 0.75, 0.0] if dataset[0] else [0.5, 0.5, 0.0]
        return DiscreteDistribution(["a", "b", "c"], probs)

    assert_bit_identical(output_law, [0, 1], 1, claimed_epsilon=1.0)


def nested_zeros_law(dataset):
    """Twelve atoms; the larger the dataset's sum, the more of atoms 0, 3,
    6, 9 have zero mass. Supports are nested, so each pair's loss is finite
    one way and unbounded the other, and the finite rows carry different
    zero patterns."""
    shift = sum(dataset)
    weights = np.array(
        [0.0 if k % 3 == 0 and k < 3 * shift else 1.0 + k * (shift + 1)
         for k in range(12)]
    )
    return DiscreteDistribution(list(range(12)), weights / weights.sum())


def shared_zeros_law(dataset):
    """Twelve atoms, the same three of them empty for every dataset: all
    losses are finite, and each row's pairwise sum skips the empty atoms."""
    shift = sum(dataset)
    weights = np.array(
        [0.0 if k in (2, 7, 11) else np.exp(-0.3 * abs(k - 4 * shift))
         for k in range(12)]
    )
    return DiscreteDistribution(list(range(12)), weights / weights.sum())


@pytest.mark.parametrize("law", [nested_zeros_law, shared_zeros_law])
def test_wide_laws_with_zero_mass_atoms(law):
    assert_bit_identical(law, [0, 1, 2], 2, claimed_epsilon=2.0)
