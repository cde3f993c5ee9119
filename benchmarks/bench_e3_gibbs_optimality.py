"""E3 (Lemma 3.2): the Gibbs posterior minimizes the PAC-Bayes objective.

Compares the closed-form Gibbs posterior against (a) a Nelder-Mead simplex
optimizer started from uniform, (b) large batches of random posteriors, and
(c) the analytic free-energy value. Reports the optimality gap of the best
competitor and the TV distance between the numerical optimum and Gibbs.

Expected shape (asserted): no competitor ever beats Gibbs; the numerical
optimizer lands on the Gibbs posterior; the free-energy identity holds to
machine precision.
"""

import numpy as np

from benchmarks.common import print_header
from repro.core.pac_bayes import (
    catoni_objective,
    gibbs_minimizer,
    minimize_catoni_bound,
    optimal_objective_value,
)
from repro.distributions import DiscreteDistribution
from repro.experiments import ResultTable
from repro.learning import BernoulliTask, PredictorGrid

TEMPERATURES = [0.5, 2.0, 8.0, 32.0]


def build_instance(seed=0, n=60, grid_size=6):
    task = BernoulliTask(p=0.75)
    grid = PredictorGrid.linspace(task.loss, 0.0, 1.0, grid_size)
    sample = list(task.sample(n, random_state=seed))
    prior = DiscreteDistribution.uniform(grid.thetas)
    return prior, grid.empirical_risks(sample)


def bench_case(lam, seed=0, n=60, grid_size=6, random_draws=200):
    """Engine entry point: Gibbs optimality at one temperature."""
    prior, risks = build_instance(seed=seed, n=n, grid_size=grid_size)
    rng = np.random.default_rng(seed + 1)
    gibbs = gibbs_minimizer(prior, risks, lam)
    gibbs_value = catoni_objective(gibbs, prior, risks, lam)
    closed_form = optimal_objective_value(prior, risks, lam)
    best_random = min(
        catoni_objective(
            DiscreteDistribution(
                prior.support, rng.dirichlet(np.ones(len(prior)))
            ),
            prior,
            risks,
            lam,
        )
        for _ in range(random_draws)
    )
    numerical, numerical_value = minimize_catoni_bound(
        prior, risks, lam, numerical=True
    )
    return {
        "objective_gibbs": float(gibbs_value),
        "free_energy": float(closed_form),
        "best_random": float(best_random),
        "numerical": float(numerical_value),
        "tv_to_gibbs": float(numerical.total_variation_distance(gibbs)),
    }


BENCH_SPEC = {
    "case": bench_case,
    "grid": {"lam": TEMPERATURES},
    "fixed": {"seed": 0, "n": 60, "grid_size": 6, "random_draws": 200},
    "seed_param": "seed",
}


def test_e3_gibbs_vs_competitors(benchmark):
    import pytest

    prior, risks = build_instance()
    rng = np.random.default_rng(1)

    def run():
        rows = []
        for lam in TEMPERATURES:
            gibbs = gibbs_minimizer(prior, risks, lam)
            gibbs_value = catoni_objective(gibbs, prior, risks, lam)
            closed_form = optimal_objective_value(prior, risks, lam)
            best_random = min(
                catoni_objective(
                    DiscreteDistribution(
                        prior.support, rng.dirichlet(np.ones(len(prior)))
                    ),
                    prior,
                    risks,
                    lam,
                )
                for _ in range(500)
            )
            numerical, numerical_value = minimize_catoni_bound(
                prior, risks, lam, numerical=True
            )
            rows.append(
                {
                    "lam": lam,
                    "gibbs": gibbs_value,
                    "free_energy": closed_form,
                    "best_random": best_random,
                    "numerical": numerical_value,
                    "tv_to_gibbs": numerical.total_variation_distance(gibbs),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header(
        "E3 / Lemma 3.2",
        "Gibbs posterior minimizes λ·E R̂ + KL(π̂‖π); optimizer must agree",
    )
    table = ResultTable(
        [
            "lambda",
            "objective @ Gibbs",
            "free energy (closed form)",
            "best of 500 random",
            "numerical optimum",
            "TV(numerical, Gibbs)",
        ],
        title="Bernoulli(0.75), n=60, |Θ|=6",
    )
    for row in rows:
        table.add_row(
            row["lam"],
            row["gibbs"],
            row["free_energy"],
            row["best_random"],
            row["numerical"],
            row["tv_to_gibbs"],
        )
    print(table)

    for row in rows:
        assert row["gibbs"] <= row["best_random"] + 1e-10
        assert row["gibbs"] == pytest.approx(row["free_energy"], abs=1e-9)
        assert row["numerical"] >= row["gibbs"] - 1e-6
        assert row["tv_to_gibbs"] < 0.03


def test_e3_closed_form_speed(benchmark):
    """Microbenchmark: closed-form Gibbs vs its numerical recovery cost."""
    prior, risks = build_instance(grid_size=6)
    result = benchmark(lambda: gibbs_minimizer(prior, risks, 8.0))
    assert len(result) == 6


def test_e3_numerical_optimizer_speed(benchmark):
    prior, risks = build_instance(grid_size=6)
    _, value = benchmark.pedantic(
        lambda: minimize_catoni_bound(prior, risks, 8.0, numerical=True),
        rounds=1,
        iterations=1,
    )
    assert np.isfinite(value)
