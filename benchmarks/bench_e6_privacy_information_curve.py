"""E6 (Section 4 discussion): ε tilts the information–risk balance.

The measured version of the paper's qualitative claim: sweeping ε over
three decades, report (ε, I(Ẑ;θ), expected empirical risk, expected TRUE
risk) of the optimal MI-regularized channel, plus the same quantities for
the practical Gibbs estimator with a uniform prior. This is the
privacy-utility frontier that Figure 1's channel picture implies.

Expected shape (asserted): I increases and both risks decrease
monotonically in ε; the frontier saturates at the ERM risk for large ε and
at zero information for small ε; the MI estimators (exact vs plug-in from
channel samples) agree.
"""

import numpy as np

from benchmarks.common import bernoulli_instance, print_header
from repro.core import GibbsEstimator, LearningChannel, tradeoff_curve
from repro.experiments import ResultTable, ascii_curve
from repro.information import mutual_information_histogram

# The sweep straddles the rate–distortion critical ε: below it the optimal
# channel releases nothing (the constant-predictor region), above it the
# frontier opens up.
EPSILONS = [0.1, 1.0, 3.0, 5.0, 8.0, 12.0, 20.0, 50.0]


def bench_case(epsilon, p=0.75, grid_size=5, n=3):
    """Engine entry point: one frontier point of the optimal channel."""
    from repro.core.tradeoff import minimize_tradeoff

    instance = bernoulli_instance(p=p, grid_size=grid_size, n=n)
    source, risks = instance["source"], instance["risk_matrix"]
    task, grid = instance["task"], instance["grid"]
    true_risks = np.array([task.true_risk(t) for t in grid.thetas])
    result = minimize_tradeoff(source, risks, epsilon)
    joint = source[:, None] * result.channel.matrix
    true_risk = float((joint.sum(axis=0) * true_risks).sum())
    return {
        "mutual_information": float(result.mutual_information),
        "empirical_risk": float(result.expected_empirical_risk),
        "true_risk": true_risk,
    }


BENCH_SPEC = {
    "case": bench_case,
    "grid": {"epsilon": EPSILONS},
    "fixed": {"p": 0.75, "grid_size": 5, "n": 3},
}


def test_e6_frontier(benchmark):
    instance = bernoulli_instance(p=0.75, grid_size=5, n=3)
    source, risks = instance["source"], instance["risk_matrix"]
    task, grid = instance["task"], instance["grid"]
    true_risks = np.array([task.true_risk(t) for t in grid.thetas])

    def run():
        points = tradeoff_curve(source, risks, EPSILONS)
        rows = []
        for eps, point in zip(EPSILONS, points):
            # True risk of the optimal channel: integrate the channel.
            from repro.core.tradeoff import minimize_tradeoff

            result = minimize_tradeoff(source, risks, eps)
            joint = source[:, None] * result.channel.matrix
            true_risk = float((joint.sum(axis=0) * true_risks).sum())
            rows.append(
                {
                    "epsilon": eps,
                    "information": point.mutual_information,
                    "empirical_risk": point.expected_empirical_risk,
                    "true_risk": true_risk,
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header(
        "E6 / Section 4",
        "privacy–information–risk frontier of the optimal channel",
    )
    table = ResultTable(
        ["epsilon", "I(Z;theta)", "E empirical risk", "E true risk"],
        title="Bernoulli(0.75), n=3, |Θ|=5 — optimal MI-regularized channel",
    )
    for row in rows:
        table.add_row(
            row["epsilon"],
            row["information"],
            row["empirical_risk"],
            row["true_risk"],
        )
    print(table)
    print(
        ascii_curve(
            [np.log10(r["epsilon"]) for r in rows],
            [r["empirical_risk"] for r in rows],
            title="expected empirical risk vs log10(epsilon)",
            x_label="log10 eps",
            y_label="risk",
        )
    )

    infos = [r["information"] for r in rows]
    emp = [r["empirical_risk"] for r in rows]
    assert all(a <= b + 1e-10 for a, b in zip(infos, infos[1:]))
    assert all(a >= b - 1e-10 for a, b in zip(emp, emp[1:]))
    # Extremes: near-zero leakage at ε→0; near-ERM risk at ε→∞.
    assert infos[0] < 1e-4
    erm_risk = float(source @ risks.min(axis=1))
    assert emp[-1] <= erm_risk + 0.05


def test_e6_estimator_cross_validation(benchmark):
    """MI of the actual Gibbs channel: exact enumeration vs plug-in MI
    estimated from channel samples — DESIGN.md ablation #4."""
    import pytest

    instance = bernoulli_instance(p=0.75, grid_size=5, n=2)
    estimator = GibbsEstimator.from_privacy(
        instance["grid"], 2.0, expected_sample_size=2
    )
    channel = LearningChannel(
        instance["data_law"], n=2, posterior_map=estimator.gibbs.posterior
    )
    exact = channel.mutual_information()

    def run():
        rng = np.random.default_rng(0)
        draws = channel.sample_law.sample(size=60_000, random_state=rng)
        # The posterior depends only on the dataset, so group identical
        # datasets and draw each group's thetas as one vectorized batch
        # (the joint (Z, θ) law is unchanged: draws are conditionally
        # i.i.d. given the dataset, and the MI histogram ignores order).
        counts = {}
        for sample in draws:
            counts[sample] = counts.get(sample, 0) + 1
        inputs, outputs = [], []
        for sample, count in counts.items():
            thetas = estimator.release_many(
                list(sample), count, random_state=rng
            )
            inputs.extend([sample] * count)
            outputs.extend(thetas)
        return mutual_information_histogram(
            [str(s) for s in inputs], [str(t) for t in outputs]
        )

    plug_in = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header("E6b", "MI estimator cross-validation (exact vs plug-in)")
    print(f"exact I(Z;θ)   = {exact:.5f} nats")
    print(f"plug-in I(Z;θ) = {plug_in:.5f} nats (60k channel samples)")
    assert plug_in == pytest.approx(exact, abs=0.02)
