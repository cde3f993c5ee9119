"""E5 (Theorem 4.2): the MI-regularized optimum is the Gibbs channel.

Runs the alternating (Blahut–Arimoto) minimization of
``E R̂ + (1/ε)·I(Ẑ;θ)`` from scratch and measures: distance of the
converged channel to the Gibbs kernel of its own marginal, the objective
against the closed-form free energy, iteration counts, and the prior
ablation (bound-optimal marginal prior vs uniform prior) — the paper's
``KL(E_Ẑ π̂ ‖ π)`` extra term, made visible.

Expected shape (asserted): Gibbs deviation ~ solver tolerance at every ε;
objective matches the free-energy closed form; the optimal-prior objective
is never worse than any fixed-prior Gibbs channel's; every prior's Gibbs
channel satisfies ``E_Z KL(π̂‖π) = I(Z;θ) + KL(E_Z π̂‖π)``, with the second
term zero only at the bound-optimal prior.
"""

import numpy as np

from benchmarks.common import bernoulli_instance, print_header
from repro.core import minimize_tradeoff
from repro.core.tradeoff import gibbs_channel_matrix, tradeoff_objective
from repro.distributions import DiscreteDistribution
from repro.experiments import ResultTable
from repro.information.blahut_arimoto import rate_distortion_free_energy
from repro.information.divergences import kl_decomposition

EPSILONS = [0.1, 0.5, 1.0, 2.0, 5.0, 20.0]


def bench_case(epsilon, p=0.7, grid_size=5, n=2):
    """Engine entry point: one alternating minimization at ε."""
    instance = bernoulli_instance(p=p, grid_size=grid_size, n=n)
    source, risks = instance["source"], instance["risk_matrix"]
    result = minimize_tradeoff(source, risks, epsilon)
    free_energy = rate_distortion_free_energy(source, risks, epsilon) / epsilon
    return {
        "objective": float(result.objective),
        "free_energy": float(free_energy),
        "mutual_information": float(result.mutual_information),
        "expected_empirical_risk": float(result.expected_empirical_risk),
        "gibbs_deviation": float(result.gibbs_deviation),
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
    }


BENCH_SPEC = {
    "case": bench_case,
    "grid": {"epsilon": EPSILONS},
    "fixed": {"p": 0.7, "grid_size": 5, "n": 2},
}


def test_e5_fixed_point_sweep(benchmark):
    import pytest

    instance = bernoulli_instance(p=0.7, grid_size=5, n=2)
    source, risks = instance["source"], instance["risk_matrix"]

    def run():
        return [
            (eps, minimize_tradeoff(source, risks, eps)) for eps in EPSILONS
        ]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header(
        "E5 / Theorem 4.2",
        "argmin of E R̂ + (1/ε)·I is the Gibbs channel with marginal prior",
    )
    table = ResultTable(
        [
            "epsilon",
            "objective",
            "free energy check",
            "I(Z;theta)",
            "E risk",
            "Gibbs deviation (TV)",
            "iterations",
        ],
        title="alternating minimization from uniform init",
    )
    for eps, result in rows:
        free_energy = rate_distortion_free_energy(source, risks, eps) / eps
        table.add_row(
            eps,
            result.objective,
            free_energy,
            result.mutual_information,
            result.expected_empirical_risk,
            result.gibbs_deviation,
            result.iterations,
        )
        assert result.converged
        assert result.gibbs_deviation < 1e-6
        assert result.objective == pytest.approx(free_energy, abs=1e-6)
    print(table)


def test_e5_prior_ablation(benchmark):
    """Ablation (DESIGN.md #3): objective with the bound-optimal marginal
    prior vs a uniform prior vs a skewed prior.

    Each row is also checked against the paper's decomposition
    ``E_Z KL(π̂‖π) = I(Z;θ) + KL(E_Z π̂‖π)`` on the exact Gibbs channel of
    its prior: the objective is ``E R̂ + I/ε``, and the second term
    vanishes at the bound-optimal prior ``π = E_Z π̂``, where the Gibbs
    channel reproduces its own prior as its marginal (Theorem 4.2).
    """
    import pytest

    instance = bernoulli_instance(p=0.7, grid_size=5, n=2)
    source, risks = instance["source"], instance["risk_matrix"]
    epsilon = 1.0
    fixed_priors = [
        ("uniform prior", np.full(risks.shape[1], 1.0 / risks.shape[1])),
        ("skewed prior", np.array([0.6, 0.1, 0.1, 0.1, 0.1])),
    ]

    def run():
        optimal = minimize_tradeoff(source, risks, epsilon)
        rows = [("optimal marginal prior", optimal.objective)]
        for label, prior in fixed_priors:
            channel = gibbs_channel_matrix(prior, risks, epsilon)
            rows.append(
                (label, tradeoff_objective(channel, source, risks, epsilon))
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header(
        "E5b / ablation",
        "prior choice: bound-optimal E_Z π̂ vs fixed priors (ε=1)",
    )
    table = ResultTable(["prior", "objective E R̂ + I/ε"])
    for label, value in rows:
        table.add_row(label, value)
    print(table)

    optimal_value = rows[0][1]
    for _, value in rows[1:]:
        assert optimal_value <= value + 1e-9

    marginal = minimize_tradeoff(source, risks, epsilon).optimal_prior
    priors = [marginal.probabilities] + [prior for _, prior in fixed_priors]
    for (label, value), prior in zip(rows, priors):
        channel = gibbs_channel_matrix(prior, risks, epsilon)
        parts = kl_decomposition(
            [DiscreteDistribution(marginal.support, row) for row in channel],
            source,
            DiscreteDistribution(marginal.support, prior),
        )
        assert parts["expected_kl"] == pytest.approx(
            parts["mutual_information"] + parts["marginal_kl"], abs=1e-9
        ), label
        expected_risk = float(source @ (channel * risks).sum(axis=1))
        assert expected_risk + parts["mutual_information"] / epsilon == (
            pytest.approx(value, abs=1e-9)
        ), label
        if label == "optimal marginal prior":
            assert parts["marginal_kl"] == pytest.approx(0.0, abs=1e-9)
        else:
            assert parts["marginal_kl"] > 1e-6, label


def test_e5_convergence_speed(benchmark):
    """Microbenchmark: one full alternating minimization (ε=1)."""
    instance = bernoulli_instance(p=0.7, grid_size=9, n=3)
    result = benchmark(
        lambda: minimize_tradeoff(
            instance["source"], instance["risk_matrix"], 1.0
        )
    )
    assert result.converged


def test_e5_geometric_convergence(benchmark):
    """The alternating objective decreases monotonically and converges
    geometrically: successive decrements shrink by a stable factor."""
    from repro.information.blahut_arimoto import rate_distortion

    instance = bernoulli_instance(p=0.7, grid_size=5, n=2)
    source, risks = instance["source"], instance["risk_matrix"]

    def run():
        values = []
        for iterations in [1, 2, 4, 8, 16, 32]:
            result = rate_distortion(
                source, risks, beta=1.0, max_iterations=iterations, tol=0.0
            )
            values.append(result.value)
        return values

    values = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header("E5c", "objective vs iteration budget (monotone descent)")
    for its, value in zip([1, 2, 4, 8, 16, 32], values):
        print(f"  iterations={its:>3}  objective={value:.12f}")
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
