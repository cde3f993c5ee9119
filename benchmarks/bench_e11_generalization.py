"""E11 (extension): privacy ⇒ low mutual information ⇒ small overfitting.

The modern payoff of the paper's Section-4 framing: the mutual information
I(Ẑ;θ) the paper identifies as the privacy-relevant leakage also *bounds
the generalization gap* (Xu–Raginsky). On the finite Bernoulli universe
everything is exact: the channel's expected generalization gap, its
mutual information, and both bounds (measured-MI route and a-priori ε
route).

Expected shape (asserted): the gap and the MI both grow with ε; the
Xu–Raginsky bound dominates the measured gap at every ε and is tighter
than the n-free privacy-chain bound; privacy demonstrably acts as a
regularizer.
"""

import numpy as np

from benchmarks.common import print_header
from repro.core import GibbsEstimator, LearningChannel, generalization_report
from repro.distributions import DiscreteDistribution
from repro.experiments import ResultTable
from repro.learning import BernoulliTask, PredictorGrid

EPSILONS = [0.1, 0.5, 1.0, 2.0, 5.0, 20.0]
N = 3
P = 0.7


def build_report(epsilon: float) -> dict:
    task = BernoulliTask(p=P)
    grid = PredictorGrid.linspace(task.loss, 0.0, 1.0, 5)
    estimator = GibbsEstimator.from_privacy(grid, epsilon, expected_sample_size=N)
    law = DiscreteDistribution([0, 1], [1 - P, P])
    channel = LearningChannel(law, N, estimator.gibbs.posterior)
    return generalization_report(
        channel,
        true_risk=task.true_risk,
        empirical_risk=lambda sample, theta: task.empirical_risk(theta, sample),
        epsilon=epsilon,
    )


def bench_case(epsilon):
    """Engine entry point: one generalization-vs-information row."""
    report = build_report(epsilon)
    return {
        "generalization_gap": float(report["generalization_gap"]),
        "mutual_information": float(report["mutual_information"]),
        "bound_xu_raginsky": float(report["bound_xu_raginsky"]),
        "bound_privacy_chain": float(report["bound_privacy_chain"]),
    }


BENCH_SPEC = {
    "case": bench_case,
    "grid": {"epsilon": EPSILONS},
}


def test_e11_gap_vs_information(benchmark):
    rows = benchmark.pedantic(
        lambda: [(eps, build_report(eps)) for eps in EPSILONS],
        rounds=1,
        iterations=1,
    )

    print_header(
        "E11 / extension",
        "exact generalization gap vs mutual-information bounds (n=3)",
    )
    table = ResultTable(
        [
            "epsilon",
            "E[R - R̂] (exact)",
            "I(Z;theta)",
            "Xu-Raginsky bound",
            "privacy-chain bound",
        ],
    )
    gaps, infos = [], []
    for eps, report in rows:
        gaps.append(report["generalization_gap"])
        infos.append(report["mutual_information"])
        table.add_row(
            eps,
            report["generalization_gap"],
            report["mutual_information"],
            report["bound_xu_raginsky"],
            report["bound_privacy_chain"],
        )
        assert abs(report["generalization_gap"]) <= report["bound_xu_raginsky"]
        assert report["bound_xu_raginsky"] <= report["bound_privacy_chain"] + 1e-9
    print(table)

    # Privacy is regularization: both gap and leakage grow with ε.
    assert all(a <= b + 1e-12 for a, b in zip(gaps, gaps[1:]))
    assert all(a <= b + 1e-12 for a, b in zip(infos, infos[1:]))


def test_e11_gap_shrinks_with_n(benchmark):
    """At fixed ε the absolute gap shrinks as n grows (Δ(R̂) = 1/n makes
    the calibrated temperature grow, but the per-sample influence falls)."""
    task = BernoulliTask(p=P)
    grid = PredictorGrid.linspace(task.loss, 0.0, 1.0, 5)
    law = DiscreteDistribution([0, 1], [1 - P, P])

    def run():
        gaps = []
        for n in [1, 2, 3, 4]:
            estimator = GibbsEstimator.from_privacy(
                grid, 2.0, expected_sample_size=n
            )
            channel = LearningChannel(law, n, estimator.gibbs.posterior)
            report = generalization_report(
                channel,
                true_risk=task.true_risk,
                empirical_risk=lambda sample, theta: task.empirical_risk(
                    theta, sample
                ),
            )
            gaps.append((n, report["generalization_gap"],
                         report["bound_xu_raginsky"]))
        return gaps

    gaps = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header("E11b", "generalization gap vs n at fixed ε = 2")
    table = ResultTable(["n", "exact gap", "Xu-Raginsky bound"])
    for n, gap, bound in gaps:
        table.add_row(n, gap, bound)
        assert abs(gap) <= bound
    print(table)
    assert gaps[-1][1] < gaps[0][1]


def test_e11_report_speed(benchmark):
    report = benchmark(lambda: build_report(1.0))
    assert report["generalization_gap"] >= -1e-12
