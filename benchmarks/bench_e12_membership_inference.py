"""E12 (extension): membership inference against the Gibbs estimator.

The operational meaning of the paper's guarantee: Definition 2.1 bounds
what ANY attacker can infer about one record from the released predictor.
This bench computes, exactly, the optimal (Neyman–Pearson) attack ROC
against the Gibbs estimator on worst-case neighbour pairs and compares it
to the ε-DP tradeoff bound and the advantage cap ``(e^ε-1)/(e^ε+1)``.

Expected shape (asserted): the attack ROC dominates (lies above) the DP
tradeoff curve at every α and every ε; the attack advantage grows with ε
but stays strictly below the DP cap (the Gibbs channel does not saturate
its guarantee, matching E4's measured/claimed ratio); randomized response
— run as the sharp control — attains the cap exactly.
"""

import numpy as np

from benchmarks.common import print_header
from repro.core import GibbsEstimator
from repro.distributions import DiscreteDistribution
from repro.experiments import ResultTable, ascii_curve
from repro.learning import BernoulliTask, PredictorGrid
from repro.mechanisms import RandomizedResponse
from repro.privacy import (
    dp_advantage_bound,
    dp_tradeoff_curve,
    membership_advantage,
    optimal_attack_roc,
    verify_tradeoff_dominance,
)
from repro.privacy.definitions import all_neighbour_pairs

EPSILONS = [0.2, 0.5, 1.0, 2.0, 5.0]
N = 2


def worst_pair_laws(epsilon: float):
    """Output laws on the neighbour pair with the largest attack advantage."""
    task = BernoulliTask(p=0.7)
    grid = PredictorGrid.linspace(task.loss, 0.0, 1.0, 5)
    estimator = GibbsEstimator.from_privacy(grid, epsilon, expected_sample_size=N)
    best = None
    for a, b in all_neighbour_pairs([0, 1], N):
        p = estimator.output_distribution(list(a))
        q = estimator.output_distribution(list(b))
        advantage = membership_advantage(p, q)
        if best is None or advantage > best[0]:
            best = (advantage, p, q)
    return best


def bench_case(epsilon):
    """Engine entry point: worst-pair attack advantage vs the DP cap."""
    advantage, p, q = worst_pair_laws(epsilon)
    rr = RandomizedResponse(epsilon)
    t = rr.truth_probability
    rr_advantage = membership_advantage(
        DiscreteDistribution([0, 1], [t, 1 - t]),
        DiscreteDistribution([0, 1], [1 - t, t]),
    )
    return {
        "attack_advantage": float(advantage),
        "dp_advantage_cap": float(dp_advantage_bound(epsilon)),
        "randomized_response_advantage": float(rr_advantage),
        "tradeoff_dominates": bool(verify_tradeoff_dominance(p, q, epsilon)),
    }


BENCH_SPEC = {
    "case": bench_case,
    "grid": {"epsilon": EPSILONS},
}


def test_e12_attack_advantage_vs_epsilon(benchmark):
    import pytest

    rows = benchmark.pedantic(
        lambda: [(eps, worst_pair_laws(eps)) for eps in EPSILONS],
        rounds=1,
        iterations=1,
    )

    print_header(
        "E12 / extension",
        "optimal membership-inference advantage vs the ε-DP cap",
    )
    table = ResultTable(
        ["epsilon", "attack advantage", "DP cap (e^ε-1)/(e^ε+1)", "RR control"],
        title="worst neighbour pair, Gibbs estimator, n=2, |Θ|=5",
    )
    advantages = []
    for eps, (advantage, p, q) in rows:
        rr = RandomizedResponse(eps)
        t = rr.truth_probability
        rr_adv = membership_advantage(
            DiscreteDistribution([0, 1], [t, 1 - t]),
            DiscreteDistribution([0, 1], [1 - t, t]),
        )
        cap = dp_advantage_bound(eps)
        table.add_row(eps, advantage, cap, rr_adv)
        advantages.append(advantage)
        # The Gibbs attack stays strictly under the cap; RR attains it.
        assert advantage < cap
        assert rr_adv == pytest.approx(cap, abs=1e-12)
        # And the full ROC respects the DP tradeoff bound.
        assert verify_tradeoff_dominance(p, q, eps)
    print(table)

    # More ε, more attack surface.
    assert all(a <= b + 1e-12 for a, b in zip(advantages, advantages[1:]))


def test_e12_roc_curve_printout(benchmark):
    epsilon = 1.0

    def run():
        _, p, q = worst_pair_laws(epsilon)
        roc = optimal_attack_roc(p, q)
        alphas = np.linspace(0, 1, 21)
        actual = np.asarray([roc.beta_at(a) for a in alphas])
        bound = dp_tradeoff_curve(epsilon, alphas)
        return alphas, actual, bound

    alphas, actual, bound = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header(
        "E12b", f"attack ROC vs DP tradeoff bound at ε={epsilon} (β vs α)"
    )
    print(
        ascii_curve(
            alphas,
            actual,
            title="optimal attacker's β(α) — must lie above the DP bound",
            x_label="alpha (FPR)",
            y_label="beta (FNR)",
        )
    )
    table = ResultTable(["alpha", "attack beta", "DP lower bound", "slack"])
    for a, act, b in zip(alphas[::4], actual[::4], bound[::4]):
        table.add_row(a, act, b, act - b)
        assert act >= b - 1e-9
    print(table)


def test_e12_roc_computation_speed(benchmark):
    task = BernoulliTask(p=0.7)
    grid = PredictorGrid.linspace(task.loss, 0.0, 1.0, 21)
    estimator = GibbsEstimator.from_privacy(grid, 1.0, expected_sample_size=N)
    p = estimator.output_distribution([0, 0])
    q = estimator.output_distribution([0, 1])
    roc = benchmark(lambda: optimal_attack_roc(p, q))
    assert roc.advantage >= 0
