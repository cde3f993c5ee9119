"""E8 (Section 2 background, Theorems 2.3 / 2.5): mechanism guarantees.

Laplace / geometric / randomized-response / exponential mechanisms: exact
(or analytic) privacy audits against their nominal ε, plus the utility
curves (error vs ε) that make the privacy–accuracy tradeoff concrete.

Expected shape (asserted): geometric and randomized response are *sharp*
(measured == nominal); Laplace's analytic ratio equals ε in the tail; the
exponential mechanism is within but can be strictly below its budget; mean
absolute error of additive mechanisms scales as Δf/ε.
"""

import numpy as np

from benchmarks.common import print_header
from repro.distributions import DiscreteDistribution
from repro.experiments import ResultTable
from repro.mechanisms import (
    ExponentialMechanism,
    GeometricMechanism,
    LaplaceMechanism,
    RandomizedResponse,
)
from repro.privacy import ExactPrivacyAuditor

EPSILONS = [0.1, 0.5, 1.0, 2.0]


def count_query(dataset):
    return float(sum(dataset))


def geometric_output_law(mechanism, dataset, support):
    center = int(count_query(dataset))
    probs = np.array(
        [np.exp(mechanism.noise_log_pmf(v - center)) for v in support]
    )
    return DiscreteDistribution(list(support), probs / probs.sum())


def bench_case(epsilon, error_samples=1000, seed=0):
    """Engine entry point: measured privacy loss + Laplace MAE at one ε."""
    geom = GeometricMechanism(count_query, 1.0, epsilon)
    support = range(-200, 204)
    geom_measured = (
        ExactPrivacyAuditor(
            lambda d, geom=geom: geometric_output_law(geom, d, support)
        )
        .audit([0, 1], n=3)
        .measured_epsilon
    )
    rr_measured = RandomizedResponse(epsilon).as_channel().max_log_ratio()
    lap = LaplaceMechanism(count_query, 1.0, epsilon)
    lap_measured = abs(
        lap.output_log_density([0, 0], 50.0)
        - lap.output_log_density([0, 1], 50.0)
    )
    exp_mech = ExponentialMechanism(
        lambda d, u: -abs(sum(d) - u),
        outputs=range(4),
        sensitivity=1.0,
        epsilon=epsilon,
    )
    exp_measured = (
        ExactPrivacyAuditor(exp_mech.output_distribution)
        .audit([0, 1], n=3)
        .measured_epsilon
    )
    rng = np.random.default_rng(seed)
    dataset = [1, 0, 1, 1, 0]
    truth = count_query(dataset)
    # Batched draws: stream-identical to the old per-release loop.
    releases = lap.release_many(dataset, error_samples, random_state=rng)
    lap_mae = float(np.mean(np.abs(releases - truth)))
    return {
        "measured_geometric": float(geom_measured),
        "measured_randomized_response": float(rr_measured),
        "measured_laplace": float(lap_measured),
        "measured_exponential": float(exp_measured),
        "laplace_mae": lap_mae,
        "laplace_mae_theory": float(lap.expected_absolute_error()),
    }


BENCH_SPEC = {
    "case": bench_case,
    "grid": {"epsilon": EPSILONS},
    "fixed": {"error_samples": 1000, "seed": 0},
    "seed_param": "seed",
}


def test_e8_privacy_audit_table(benchmark):
    import pytest

    def run():
        rows = []
        for eps in EPSILONS:
            # Geometric: exact audit over a truncated (renormalized) support
            # wide enough that truncation error is ~0.
            geom = GeometricMechanism(count_query, 1.0, eps)
            support = range(-200, 204)
            auditor = ExactPrivacyAuditor(
                lambda d, geom=geom: geometric_output_law(geom, d, support)
            )
            geom_measured = auditor.audit([0, 1], n=3).measured_epsilon

            # Randomized response: sharp 2x2 channel.
            rr = RandomizedResponse(eps)
            rr_measured = rr.as_channel().max_log_ratio()

            # Laplace: analytic worst-case ratio (tail value).
            lap = LaplaceMechanism(count_query, 1.0, eps)
            lap_measured = abs(
                lap.output_log_density([0, 0], 50.0)
                - lap.output_log_density([0, 1], 50.0)
            )

            # Exponential mechanism: exact audit on a 4-point range.
            exp_mech = ExponentialMechanism(
                lambda d, u: -abs(sum(d) - u),
                outputs=range(4),
                sensitivity=1.0,
                epsilon=eps,
            )
            exp_measured = (
                ExactPrivacyAuditor(exp_mech.output_distribution)
                .audit([0, 1], n=3)
                .measured_epsilon
            )
            rows.append(
                {
                    "epsilon": eps,
                    "geometric": geom_measured,
                    "randomized_response": rr_measured,
                    "laplace": lap_measured,
                    "exponential": exp_measured,
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header(
        "E8 / Theorems 2.3 & 2.5",
        "measured privacy loss vs nominal ε, per mechanism",
    )
    table = ResultTable(
        ["nominal eps", "geometric", "randomized resp", "laplace", "exp mech"],
        title="measured worst-case log-ratio (exact/analytic)",
    )
    for row in rows:
        table.add_row(
            row["epsilon"],
            row["geometric"],
            row["randomized_response"],
            row["laplace"],
            row["exponential"],
        )
    print(table)

    for row in rows:
        eps = row["epsilon"]
        # Sharp mechanisms: measured == nominal.
        assert row["geometric"] == pytest.approx(eps, abs=1e-6)
        assert row["randomized_response"] == pytest.approx(eps, abs=1e-9)
        assert row["laplace"] == pytest.approx(eps, abs=1e-9)
        # Exponential: within budget (possibly strictly below).
        assert row["exponential"] <= eps + 1e-9


def test_e8_utility_curves(benchmark):
    """Mean absolute error vs ε for the additive-noise mechanisms."""
    import pytest

    def run():
        rows = []
        rng = np.random.default_rng(0)
        dataset = [1, 0, 1, 1, 0]
        truth = count_query(dataset)
        for eps in EPSILONS:
            lap = LaplaceMechanism(count_query, 1.0, eps)
            geom = GeometricMechanism(count_query, 1.0, eps)
            lap_err = np.mean(
                np.abs(lap.release_many(dataset, 5_000, random_state=rng) - truth)
            )
            geom_err = np.mean(
                np.abs(geom.release_many(dataset, 5_000, random_state=rng) - truth)
            )
            rows.append(
                {
                    "epsilon": eps,
                    "laplace_mae": float(lap_err),
                    "laplace_theory": lap.expected_absolute_error(),
                    "geometric_mae": float(geom_err),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header("E8b", "utility: mean absolute error vs ε (count query)")
    table = ResultTable(
        ["epsilon", "laplace MAE", "laplace theory Δf/ε", "geometric MAE"],
    )
    for row in rows:
        table.add_row(
            row["epsilon"],
            row["laplace_mae"],
            row["laplace_theory"],
            row["geometric_mae"],
        )
    print(table)

    # Error decreases with ε and matches the Δf/ε theory for Laplace.
    maes = [r["laplace_mae"] for r in rows]
    assert all(a >= b for a, b in zip(maes, maes[1:]))
    for row in rows:
        assert row["laplace_mae"] == pytest.approx(
            row["laplace_theory"], rel=0.1
        )


def test_e8_laplace_release_speed(benchmark):
    mech = LaplaceMechanism(count_query, 1.0, 1.0)
    rng = np.random.default_rng(1)
    benchmark(lambda: mech.release([1, 0, 1], random_state=rng))


def test_e8_exponential_release_speed(benchmark):
    mech = ExponentialMechanism(
        lambda d, u: -abs(sum(d) - u),
        outputs=range(64),
        sensitivity=1.0,
        epsilon=1.0,
    )
    rng = np.random.default_rng(2)
    benchmark(lambda: mech.release([1, 0, 1], random_state=rng))


def test_e8_laplace_batch_speed(benchmark):
    """Audit-sized batch (n=50k) through the vectorized Laplace kernel."""
    mech = LaplaceMechanism(count_query, 1.0, 1.0)
    rng = np.random.default_rng(1)
    benchmark.pedantic(
        lambda: mech.release_many([1, 0, 1], 50_000, random_state=rng),
        rounds=3,
        iterations=1,
    )


def test_e8_exponential_batch_speed(benchmark):
    """Audit-sized batch (n=50k) through the tilt-once exponential kernel."""
    mech = ExponentialMechanism(
        lambda d, u: -abs(sum(d) - u),
        outputs=range(64),
        sensitivity=1.0,
        epsilon=1.0,
    )
    rng = np.random.default_rng(2)
    benchmark.pedantic(
        lambda: mech.release_many([1, 0, 1], 50_000, random_state=rng),
        rounds=3,
        iterations=1,
    )
