"""E2 (Theorem 3.1): PAC-Bayes bound validity and tightness.

Monte-Carlo over sample draws: for each n, draw many samples, compute the
Gibbs posterior and the Catoni / McAllester / Seeger bounds, and compare to
the *exact* true Gibbs risk (closed-form on the Bernoulli task). Reports
coverage (fraction of draws where the bound held — must be ≥ 1-δ) and the
mean bound-minus-truth gap (tightness).

Expected shape (asserted): every bound's coverage ≥ 1-δ; Seeger is the
tightest on average; gaps shrink as n grows.
"""

import numpy as np

from benchmarks.common import print_header
from repro.core.pac_bayes import (
    catoni_bound,
    gibbs_minimizer,
    mcallester_bound,
    seeger_bound,
)
from repro.distributions import DiscreteDistribution
from repro.experiments import ResultTable
from repro.information import kl_divergence
from repro.learning import BernoulliTask, PredictorGrid

DELTA = 0.1
TRIALS = 400
SAMPLE_SIZES = [50, 200, 1000]


def run_coverage(n: int, seed: int = 0, trials: int = TRIALS) -> dict:
    task = BernoulliTask(p=0.7)
    grid = PredictorGrid.linspace(task.loss, 0.0, 1.0, 9)
    prior = DiscreteDistribution.uniform(grid.thetas)
    true_risks = np.array([task.true_risk(t) for t in grid.thetas])
    lam = float(np.sqrt(n))
    rng = np.random.default_rng(seed)

    violations = {"catoni": 0, "mcallester": 0, "seeger": 0}
    gaps = {"catoni": [], "mcallester": [], "seeger": []}
    for _ in range(trials):
        sample = list(task.sample(n, random_state=rng))
        risks = grid.empirical_risks(sample)
        posterior = gibbs_minimizer(prior, risks, lam)
        emp = float(risks @ posterior.probabilities)
        kl = kl_divergence(posterior, prior)
        true = float(true_risks @ posterior.probabilities)
        bounds = {
            "catoni": catoni_bound(emp, kl, n, lam, DELTA),
            "mcallester": mcallester_bound(emp, kl, n, DELTA),
            "seeger": seeger_bound(emp, kl, n, DELTA),
        }
        for name, bound in bounds.items():
            if true > bound:
                violations[name] += 1
            gaps[name].append(bound - true)
    return {
        "n": n,
        "coverage": {
            name: 1.0 - violations[name] / trials for name in violations
        },
        "mean_gap": {name: float(np.mean(gaps[name])) for name in gaps},
    }


def bench_case(n, trials=80, seed=0):
    """Engine entry point: coverage/tightness at one n, flattened."""
    result = run_coverage(n, seed=seed, trials=trials)
    outputs = {"n": int(n)}
    for name in ("catoni", "mcallester", "seeger"):
        outputs[f"coverage_{name}"] = float(result["coverage"][name])
        outputs[f"mean_gap_{name}"] = float(result["mean_gap"][name])
    return outputs


BENCH_SPEC = {
    "case": bench_case,
    "grid": {"n": SAMPLE_SIZES},
    "fixed": {"trials": 80, "seed": 0},
    "seed_param": "seed",
}


def test_e2_bound_coverage_and_tightness(benchmark):
    results = benchmark.pedantic(
        lambda: [run_coverage(n) for n in SAMPLE_SIZES], rounds=1, iterations=1
    )

    print_header(
        "E2 / Theorem 3.1",
        f"PAC-Bayes bounds hold w.p. >= 1-δ (δ={DELTA}, {TRIALS} draws/row)",
    )
    table = ResultTable(
        [
            "n",
            "catoni cov",
            "mcallester cov",
            "seeger cov",
            "catoni gap",
            "mcallester gap",
            "seeger gap",
        ],
        title="coverage (target >= 0.9) and mean bound-truth gap",
    )
    for res in results:
        table.add_row(
            res["n"],
            res["coverage"]["catoni"],
            res["coverage"]["mcallester"],
            res["coverage"]["seeger"],
            res["mean_gap"]["catoni"],
            res["mean_gap"]["mcallester"],
            res["mean_gap"]["seeger"],
        )
    print(table)

    for res in results:
        # Validity: coverage at least 1 - δ for every bound.
        for name in ("catoni", "mcallester", "seeger"):
            assert res["coverage"][name] >= 1.0 - DELTA
        # Seeger is the tightest on average.
        assert res["mean_gap"]["seeger"] <= res["mean_gap"]["mcallester"] + 1e-9
    # Tightness improves with n for every bound.
    for name in ("catoni", "mcallester", "seeger"):
        gaps = [res["mean_gap"][name] for res in results]
        assert gaps[0] > gaps[-1]


def test_e2_single_bound_evaluation_speed(benchmark):
    """Microbenchmark: one full bound evaluation (posterior + KL + bounds)."""
    task = BernoulliTask(p=0.7)
    grid = PredictorGrid.linspace(task.loss, 0.0, 1.0, 9)
    prior = DiscreteDistribution.uniform(grid.thetas)
    sample = list(task.sample(500, random_state=1))

    def run():
        risks = grid.empirical_risks(sample)
        posterior = gibbs_minimizer(prior, risks, 22.0)
        emp = float(risks @ posterior.probabilities)
        kl = kl_divergence(posterior, prior)
        return seeger_bound(emp, kl, 500, DELTA)

    value = benchmark(run)
    assert 0 < value < 1
