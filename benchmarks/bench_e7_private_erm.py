"""E7 (§1 motivation; Chaudhuri et al. refs 5, 6): private ERM shootout.

Private logistic-regression-style classification on synthetic two-Gaussian
data: non-private ERM vs output perturbation vs objective perturbation vs
the paper's generic Gibbs/exponential-mechanism learner over a direction
grid. Test accuracy vs ε, averaged over seeds, plus the grid-resolution
ablation for the generic learner.

Expected shape (asserted): all private methods approach the non-private
accuracy as ε grows; objective perturbation ≥ output perturbation at
moderate ε; the Gibbs learner pays a resolution-dependent floor that
finer grids lift.
"""

import numpy as np

from benchmarks.common import print_header
from repro.experiments import ResultTable
from repro.learning import LogisticLoss, LogisticRegressionModel, TwoGaussiansTask
from repro.private_learning import (
    ExponentialMechanismLearner,
    ObjectivePerturbationClassifier,
    OutputPerturbationClassifier,
)

EPSILONS = [0.1, 0.5, 2.0, 10.0]
SEEDS = 10
N_TRAIN = 800
REGULARIZATION = 0.01


def build_data():
    # Class mean at an "awkward" angle (~23°) so no coarse direction grid
    # contains the optimal separator — otherwise the resolution ablation
    # would be degenerate.
    task = TwoGaussiansTask([1.38, 0.58], clip_features=True)
    x_train, y_train = task.sample(N_TRAIN, random_state=0)
    x_test, y_test = task.sample(4_000, random_state=999)
    return task, (x_train, y_train), (x_test, y_test)


def accuracy_sweep():
    task, (x, y), (x_test, y_test) = build_data()
    nonprivate = LogisticRegressionModel(REGULARIZATION).fit(x, y)
    baseline = nonprivate.accuracy(x_test, y_test)

    rows = []
    for eps in EPSILONS:
        out_acc, obj_acc, gibbs_acc = [], [], []
        for seed in range(SEEDS):
            out = OutputPerturbationClassifier(
                LogisticLoss(), REGULARIZATION, eps
            ).fit(x, y, random_state=seed)
            obj = ObjectivePerturbationClassifier(
                LogisticLoss(), REGULARIZATION, eps
            ).fit(x, y, random_state=seed)
            gibbs = ExponentialMechanismLearner(
                2, eps, N_TRAIN, resolution=64
            ).fit(x, y, random_state=seed)
            out_acc.append(out.accuracy(x_test, y_test))
            obj_acc.append(obj.accuracy(x_test, y_test))
            gibbs_acc.append(gibbs.accuracy(x_test, y_test))
        rows.append(
            {
                "epsilon": eps,
                "output": float(np.mean(out_acc)),
                "objective": float(np.mean(obj_acc)),
                "gibbs": float(np.mean(gibbs_acc)),
            }
        )
    return baseline, rows


def bench_case(epsilon, seeds=3, resolution=32, seed=0):
    """Engine entry point: mean private-classifier accuracy at one ε."""
    task, (x, y), (x_test, y_test) = build_data()
    out_acc, obj_acc, gibbs_acc = [], [], []
    for offset in range(seeds):
        fit_seed = seed + offset
        out = OutputPerturbationClassifier(
            LogisticLoss(), REGULARIZATION, epsilon
        ).fit(x, y, random_state=fit_seed)
        obj = ObjectivePerturbationClassifier(
            LogisticLoss(), REGULARIZATION, epsilon
        ).fit(x, y, random_state=fit_seed)
        gibbs = ExponentialMechanismLearner(
            2, epsilon, N_TRAIN, resolution=resolution
        ).fit(x, y, random_state=fit_seed)
        out_acc.append(out.accuracy(x_test, y_test))
        obj_acc.append(obj.accuracy(x_test, y_test))
        gibbs_acc.append(gibbs.accuracy(x_test, y_test))
    return {
        "accuracy_output_perturbation": float(np.mean(out_acc)),
        "accuracy_objective_perturbation": float(np.mean(obj_acc)),
        "accuracy_gibbs": float(np.mean(gibbs_acc)),
    }


BENCH_SPEC = {
    "case": bench_case,
    "grid": {"epsilon": EPSILONS},
    "fixed": {"seeds": 3, "resolution": 32, "seed": 0},
    "seed_param": "seed",
}


def test_e7_accuracy_vs_epsilon(benchmark):
    baseline, rows = benchmark.pedantic(accuracy_sweep, rounds=1, iterations=1)

    print_header(
        "E7 / Chaudhuri baselines",
        f"private classification accuracy vs ε (n={N_TRAIN}, {SEEDS} seeds)",
    )
    table = ResultTable(
        ["epsilon", "output-pert", "objective-pert", "gibbs (grid 64)", "non-private"],
        title="test accuracy, two-Gaussian task (Bayes-opt ≈ 0.93)",
    )
    for row in rows:
        table.add_row(
            row["epsilon"], row["output"], row["objective"], row["gibbs"], baseline
        )
    print(table)

    # All methods improve with ε (allowing small Monte-Carlo slack).
    for key in ("output", "objective", "gibbs"):
        values = [r[key] for r in rows]
        assert values[-1] >= values[0] - 0.02
    # At the largest ε everyone is near the non-private baseline.
    final = rows[-1]
    assert final["objective"] >= baseline - 0.03
    assert final["output"] >= baseline - 0.05
    assert final["gibbs"] >= baseline - 0.05
    # Objective perturbation >= output perturbation at moderate ε.
    moderate = [r for r in rows if r["epsilon"] in (0.5, 2.0)]
    assert all(r["objective"] >= r["output"] - 0.01 for r in moderate)


def test_e7_resolution_ablation(benchmark):
    """Ablation (DESIGN.md #2): Θ-grid resolution for the generic learner."""
    task, (x, y), (x_test, y_test) = build_data()
    epsilon = 2.0

    def run():
        rows = []
        for resolution in [4, 16, 64, 256]:
            accs = [
                ExponentialMechanismLearner(
                    2, epsilon, N_TRAIN, resolution=resolution
                )
                .fit(x, y, random_state=seed)
                .accuracy(x_test, y_test)
                for seed in range(SEEDS)
            ]
            rows.append((resolution, float(np.mean(accs))))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header(
        "E7b / ablation", f"Gibbs learner grid resolution at ε={epsilon}"
    )
    table = ResultTable(["grid size", "mean test accuracy"])
    for resolution, acc in rows:
        table.add_row(resolution, acc)
    print(table)

    # A 4-direction grid underfits (no direction near the optimum); finer
    # grids recover the lost accuracy.
    coarse = rows[0][1]
    fine = max(acc for _, acc in rows[1:])
    assert fine > coarse


def test_e7_single_private_fit_speed(benchmark):
    """Microbenchmark: one objective-perturbation fit (n=800, d=2)."""
    _, (x, y), _ = build_data()
    clf = benchmark(
        lambda: ObjectivePerturbationClassifier(
            LogisticLoss(), REGULARIZATION, 1.0
        ).fit(x, y, random_state=0)
    )
    assert clf.coefficients.shape == (2,)


def test_e7_gibbs_fit_speed(benchmark):
    """Microbenchmark: one Gibbs-learner fit (grid 64, n=800)."""
    _, (x, y), _ = build_data()
    learner = benchmark(
        lambda: ExponentialMechanismLearner(2, 1.0, N_TRAIN, resolution=64).fit(
            x, y, random_state=0
        )
    )
    assert learner.coefficients.shape == (2,)
