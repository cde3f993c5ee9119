"""E14 (extension): privacy accounting under repeated learning queries.

Deploying the paper's Gibbs estimator means answering *many* learning
queries against one dataset; the total guarantee depends on the
accountant. This bench compares the three accountants implemented in the
library — basic composition, advanced composition, and Rényi DP with
optimal order selection — for k repeats of an ε₀-DP release, plus the
smooth-sensitivity median as the structured-release counterpoint.

Expected shape (asserted): total ε is monotone in k for every accountant;
basic wins for small k, RDP wins for large k (with advanced between),
and the crossovers appear in the table; the smooth-sensitivity median
beats the global-sensitivity Laplace median by an order of magnitude on
concentrated data.
"""

import numpy as np

from benchmarks.common import print_header
from repro.experiments import ResultTable
from repro.mechanisms import (
    LaplaceMechanism,
    PrivacySpec,
    SmoothSensitivityMedian,
    advanced_composition,
    sequential_composition,
)
from repro.privacy import optimal_rdp_to_dp, rdp_of_pure_dp
from repro.privacy.renyi import RenyiSpec

EPSILON_PER_QUERY = 0.1
DELTA = 1e-6
KS = [1, 5, 20, 100, 500, 2000]


def total_epsilons(k: int) -> dict:
    basic = sequential_composition([PrivacySpec(EPSILON_PER_QUERY)] * k)
    advanced = advanced_composition(EPSILON_PER_QUERY, 0.0, k, DELTA)
    # k-fold RDP composition of identical mechanisms scales ρ by k.
    rdp = optimal_rdp_to_dp(
        lambda alpha: RenyiSpec(
            alpha, k * rdp_of_pure_dp(EPSILON_PER_QUERY, alpha).rho
        ),
        DELTA,
    )
    return {
        "k": k,
        "basic": basic.epsilon,
        "advanced": advanced.epsilon,
        "rdp": rdp.epsilon,
    }


def bench_case(k):
    """Engine entry point: all three accountants at one query count k."""
    row = total_epsilons(k)
    return {
        "epsilon_basic": float(row["basic"]),
        "epsilon_advanced": float(row["advanced"]),
        "epsilon_rdp": float(row["rdp"]),
    }


BENCH_SPEC = {
    "case": bench_case,
    "grid": {"k": KS},
}


def test_e14_accountant_comparison(benchmark):
    rows = benchmark.pedantic(
        lambda: [total_epsilons(k) for k in KS], rounds=1, iterations=1
    )

    print_header(
        "E14 / extension",
        f"total ε after k releases of an {EPSILON_PER_QUERY}-DP mechanism "
        f"(δ' = {DELTA})",
    )
    table = ResultTable(
        ["k", "basic ε", "advanced ε", "RDP ε", "best"],
    )
    winners = []
    for row in rows:
        candidates = {
            "basic": row["basic"],
            "advanced": row["advanced"],
            "rdp": row["rdp"],
        }
        winner = min(candidates, key=candidates.get)
        winners.append(winner)
        table.add_row(
            row["k"], row["basic"], row["advanced"], row["rdp"], winner
        )
    print(table)

    # Monotone in k per accountant.
    for key in ("basic", "advanced", "rdp"):
        values = [r[key] for r in rows]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    # Basic wins at k=1; RDP wins at the largest k; both appear as winners.
    assert winners[0] == "basic"
    assert winners[-1] == "rdp"
    # At large k, RDP is strictly below basic by a large factor.
    assert rows[-1]["rdp"] < rows[-1]["basic"] / 3


def test_e14_smooth_vs_global_median(benchmark):
    rng_data = np.random.default_rng(0)
    data = np.clip(0.55 + 0.03 * rng_data.standard_normal(501), 0, 1)
    truth = float(np.median(data))
    epsilon = 1.0

    def run():
        from repro.mechanisms import ExponentialQuantile

        smooth = SmoothSensitivityMedian(0.0, 1.0, epsilon=epsilon, delta=1e-6)
        naive = LaplaceMechanism(
            lambda d: float(np.median(d)), sensitivity=1.0, epsilon=epsilon
        )
        exp_quantile = ExponentialQuantile(0.0, 1.0, 0.5, epsilon=epsilon)
        rng = np.random.default_rng(1)
        # The smooth sensitivity is deterministic in the data — compute it
        # once and simulate the mechanism's noise directly.
        scale = 2.0 * smooth.smooth_sensitivity(data) / epsilon
        smooth_errors = np.abs(rng.laplace(scale=scale, size=2000))
        naive_errors = np.abs(
            np.clip(naive.release_many(data, 2000, random_state=rng), 0, 1)
            - truth
        )
        quantile_errors = np.abs(
            exp_quantile.release_many(data, 2000, random_state=rng) - truth
        )
        return (
            float(np.median(smooth_errors)),
            float(np.median(naive_errors)),
            float(np.median(quantile_errors)),
        )

    smooth_error, naive_error, quantile_error = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    print_header(
        "E14b",
        "private median: smooth sensitivity vs exponential quantile vs "
        "global sensitivity",
    )
    print(f"  median abs error, smooth sensitivity   : {smooth_error:.5f}")
    print(f"  median abs error, exponential quantile : {quantile_error:.5f}")
    print(f"  median abs error, global Laplace        : {naive_error:.5f}")
    print(f"  smooth improvement over global          : "
          f"{naive_error / max(smooth_error, 1e-12):.1f}x")
    # Both instance-aware mechanisms crush the global-sensitivity route.
    assert smooth_error < naive_error / 10
    assert quantile_error < naive_error / 10


def test_e14_accounting_speed(benchmark):
    out = benchmark.pedantic(
        lambda: total_epsilons(100), rounds=3, iterations=1
    )
    assert out["rdp"] > 0
