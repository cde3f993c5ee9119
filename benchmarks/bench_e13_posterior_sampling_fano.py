"""E13 (extension): posterior sampling and the Fano privacy floor.

Two closing pieces of the paper's program:

* **posterior sampling** — with the negative log-likelihood as the loss,
  the Gibbs estimator is the tempered Bayes posterior, and one posterior
  sample is 2λB-DP ("privacy for free"). We sweep ε on the truncated
  Beta–Bernoulli model and report estimation error, against the grid
  Gibbs estimator on the same task.
* **Fano lower bound** — the "lower bounds" half of the paper's §5: the
  DP information cap I ≤ n·ε forces a *floor* on how well ANY ε-DP
  learner can identify the secret sample; measured Bayes-adversary error
  of the Gibbs channel is compared against the exact-MI Fano floor and
  the a-priori DP chain floor.

Expected shape (asserted): both MSE curves fall monotonically in ε toward
the sampling floor and track each other closely — the grid route's
risk-calibrated temperature (λ = εn/2) is sharper than posterior
sampling's n-free λ = ε/(2B), while posterior sampling avoids any
discretization; Bayes error ≥ exact Fano ≥ DP chain floor everywhere, and
the floors bind (are > 0) at small ε.
"""

import numpy as np

from benchmarks.common import print_header
from repro.core import GibbsEstimator, LearningChannel, TruncatedBetaBernoulliPosterior
from repro.distributions import DiscreteDistribution
from repro.experiments import ResultTable
from repro.information.fano import dp_identification_lower_bound, verify_fano
from repro.learning import BernoulliTask, PredictorGrid

EPSILONS = [0.1, 0.5, 2.0, 10.0, 50.0]
TRUE_P = 0.7
N = 400
SEEDS = 400


def bench_case(epsilon, draws=100, seed=1, fano_n=3):
    """Engine entry point: sampling error + Fano floors at one ε."""
    task = BernoulliTask(p=TRUE_P)
    data = task.sample(N, random_state=0)
    grid = PredictorGrid.linspace(
        lambda theta, z: (theta - z) ** 2, 0.0, 1.0, 21
    )
    rng = np.random.default_rng(seed)
    sampler = TruncatedBetaBernoulliPosterior(epsilon=epsilon, truncation=0.05)
    bayes_draws = np.asarray(
        sampler.release_many(data, draws, random_state=rng), dtype=float
    )
    gibbs = GibbsEstimator.from_privacy(grid, epsilon, N)
    # Batched draws from the (dataset-fixed) Gibbs posterior.
    gibbs_draws = np.asarray(
        gibbs.release_many(list(data), draws, random_state=rng), dtype=float
    )

    fano_task = BernoulliTask(p=0.5)
    fano_grid = PredictorGrid.linspace(fano_task.loss, 0.0, 1.0, 5)
    law = DiscreteDistribution([0, 1], [0.5, 0.5])
    estimator = GibbsEstimator.from_privacy(fano_grid, epsilon, fano_n)
    channel = LearningChannel(law, fano_n, estimator.gibbs.posterior)
    report = verify_fano(channel.channel, channel.sample_law)
    return {
        "bayes_mse": float(((bayes_draws - TRUE_P) ** 2).mean()),
        "gibbs_mse": float(((gibbs_draws - TRUE_P) ** 2).mean()),
        "bayes_error": float(report["bayes_error"]),
        "fano_exact": float(report["fano_bound"]),
        "fano_chain": float(
            dp_identification_lower_bound(epsilon, fano_n, 2**fano_n)
        ),
        "fano_holds": bool(report["holds"]),
    }


BENCH_SPEC = {
    "case": bench_case,
    "grid": {"epsilon": EPSILONS},
    "fixed": {"draws": 100, "seed": 1, "fano_n": 3},
    "seed_param": "seed",
}


def test_e13_posterior_sampling_error(benchmark):
    task = BernoulliTask(p=TRUE_P)
    data = task.sample(N, random_state=0)
    # Squared loss so the grid Gibbs estimates the bias p itself (the
    # absolute loss would target the majority label instead).
    grid = PredictorGrid.linspace(
        lambda theta, z: (theta - z) ** 2, 0.0, 1.0, 21
    )

    def run():
        rows = []
        rng = np.random.default_rng(1)
        for eps in EPSILONS:
            sampler = TruncatedBetaBernoulliPosterior(
                epsilon=eps, truncation=0.05
            )
            bayes_draws = np.asarray(
                sampler.release_many(data, SEEDS, random_state=rng),
                dtype=float,
            )
            gibbs = GibbsEstimator.from_privacy(grid, eps, N)
            gibbs_draws = np.asarray(
                gibbs.release_many(list(data), SEEDS, random_state=rng),
                dtype=float,
            )
            rows.append(
                {
                    "epsilon": eps,
                    "bayes_mse": float(((bayes_draws - TRUE_P) ** 2).mean()),
                    "gibbs_mse": float(((gibbs_draws - TRUE_P) ** 2).mean()),
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header(
        "E13a / extension",
        f"posterior sampling vs grid Gibbs: MSE of θ̂ around p={TRUE_P} (n={N})",
    )
    table = ResultTable(
        ["epsilon", "posterior-sampling MSE", "grid-Gibbs MSE"],
        title=f"{SEEDS} released samples each; truncation 0.05; 21-point grid",
    )
    for row in rows:
        table.add_row(row["epsilon"], row["bayes_mse"], row["gibbs_mse"])
    print(table)

    for key in ("bayes_mse", "gibbs_mse"):
        values = [r[key] for r in rows]
        assert values[-1] <= values[0] + 1e-9
    # At high ε both are small; the Bernoulli sampling floor is ~p(1-p)/n.
    floor = TRUE_P * (1 - TRUE_P) / N
    assert rows[-1]["bayes_mse"] < 20 * floor


def test_e13_fano_floor(benchmark):
    task = BernoulliTask(p=0.5)  # uniform secret: Fano at full strength
    grid = PredictorGrid.linspace(task.loss, 0.0, 1.0, 5)
    law = DiscreteDistribution([0, 1], [0.5, 0.5])
    n = 3

    def run():
        rows = []
        for eps in EPSILONS:
            estimator = GibbsEstimator.from_privacy(grid, eps, n)
            channel = LearningChannel(law, n, estimator.gibbs.posterior)
            report = verify_fano(channel.channel, channel.sample_law)
            rows.append(
                {
                    "epsilon": eps,
                    "bayes_error": report["bayes_error"],
                    "fano_exact": report["fano_bound"],
                    "fano_chain": dp_identification_lower_bound(eps, n, 2**n),
                    "holds": report["holds"],
                }
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header(
        "E13b / extension",
        "secret-identification error vs Fano floors (8 secrets, n=3)",
    )
    table = ResultTable(
        [
            "epsilon",
            "Bayes adversary error",
            "Fano floor (exact MI)",
            "Fano floor (DP chain)",
        ],
    )
    for row in rows:
        table.add_row(
            row["epsilon"],
            row["bayes_error"],
            row["fano_exact"],
            row["fano_chain"],
        )
        assert row["holds"]
        assert row["bayes_error"] >= row["fano_chain"] - 1e-12
        assert row["fano_chain"] <= row["fano_exact"] + 1e-12
    print(table)

    # The floor binds at small ε: privacy provably protects the secret.
    assert rows[0]["fano_chain"] > 0.5


def test_e13_sampling_speed(benchmark):
    data = BernoulliTask(p=0.7).sample(400, random_state=2)
    sampler = TruncatedBetaBernoulliPosterior(epsilon=1.0)
    rng = np.random.default_rng(3)
    value = benchmark(lambda: sampler.release(data, random_state=rng))
    assert 0.05 <= value <= 0.95
