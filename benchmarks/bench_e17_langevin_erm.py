"""E17 (ROADMAP: Gopi–Lee–Liu): high-dimensional exponential mechanism.

Private linear classification at d = 16 — far beyond what the direction
grid of E7 can discretize — comparing the regularized exponential
mechanism (batched MALA sampling, `repro.private_learning.langevin`)
against the output- and objective-perturbation baselines on the same
two-Gaussian task. Test accuracy vs ε averaged over seeds, plus the
batched-chain wall-clock against a per-chain loop.

Expected shape (asserted): every method improves with ε toward the
non-private baseline; the sampled mechanism is at least competitive with
output perturbation in the small-ε regime (where perturbation noise
swamps the signal but the posterior's regularizer still pulls toward
sensible θ); and the lock-step chain batch beats a per-chain Python loop
by the ≥5× acceptance bar of ISSUE 8.
"""

import numpy as np

from benchmarks.common import print_header
from repro.experiments import ResultTable
from repro.learning import LogisticLoss, LogisticRegressionModel, TwoGaussiansTask
from repro.learning.losses import TruncatedLoss
from repro.private_learning import (
    GibbsERMClassifier,
    ObjectivePerturbationClassifier,
    OutputPerturbationClassifier,
    RegularizedExponentialMechanism,
)

EPSILONS = [0.1, 0.5, 2.0, 10.0]
SEEDS = 8
N_TRAIN = 800
DIMENSION = 16
REGULARIZATION = 0.05
LOSS_CEILING = 2.0


def build_data():
    # Signal concentrated in two coordinates of a 16-dim space; the other
    # 14 are pure noise the learners must regularize away.
    mean = np.zeros(DIMENSION)
    mean[0], mean[1] = 1.38, 0.58
    task = TwoGaussiansTask(mean, clip_features=True)
    x_train, y_train = task.sample(N_TRAIN, random_state=0)
    x_test, y_test = task.sample(4_000, random_state=999)
    return task, (x_train, y_train), (x_test, y_test)


def _gibbs_loss():
    return TruncatedLoss(LogisticLoss(), ceiling=LOSS_CEILING)


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
            gibbs = GibbsERMClassifier(_gibbs_loss(), REGULARIZATION, eps).fit(
                x, y, random_state=seed
            )
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


def bench_case(epsilon, seeds=3, chains=64, seed=0):
    """Engine entry point: accuracy of the three learners plus batched
    sampler throughput at one ε."""
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
        gibbs = GibbsERMClassifier(_gibbs_loss(), REGULARIZATION, epsilon).fit(
            x, y, random_state=fit_seed
        )
        out_acc.append(out.accuracy(x_test, y_test))
        obj_acc.append(obj.accuracy(x_test, y_test))
        gibbs_acc.append(gibbs.accuracy(x_test, y_test))
    mechanism = RegularizedExponentialMechanism(
        _gibbs_loss(), REGULARIZATION, epsilon
    )
    samples = mechanism.release_many((x, y), chains, random_state=seed)
    return {
        "accuracy_output_perturbation": float(np.mean(out_acc)),
        "accuracy_objective_perturbation": float(np.mean(obj_acc)),
        "accuracy_gibbs_erm": float(np.mean(gibbs_acc)),
        "sampler_acceptance_rate": float(mechanism.last_acceptance_rate),
        "sampler_chains": int(np.asarray(samples).shape[0]),
    }


BENCH_SPEC = {
    "case": bench_case,
    "grid": {"epsilon": EPSILONS},
    "fixed": {"seeds": 3, "chains": 64, "seed": 0},
    "seed_param": "seed",
}


def test_e17_accuracy_vs_epsilon(benchmark):
    baseline, rows = benchmark.pedantic(accuracy_sweep, rounds=1, iterations=1)

    print_header(
        "E17 / regularized exponential mechanism",
        f"d={DIMENSION} private ERM accuracy vs ε (n={N_TRAIN}, {SEEDS} seeds)",
    )
    table = ResultTable(
        ["epsilon", "output-pert", "objective-pert", "gibbs-erm (MALA)", "non-private"],
        title=f"test accuracy, two-Gaussian task in R^{DIMENSION}",
    )
    for row in rows:
        table.add_row(
            row["epsilon"], row["output"], row["objective"], row["gibbs"], baseline
        )
    print(table)

    # The privacy/utility trade-off: every method improves with ε
    # (allowing Monte-Carlo slack) and lands near the baseline at ε = 10.
    for key in ("output", "objective", "gibbs"):
        values = [r[key] for r in rows]
        assert values[-1] >= values[0] - 0.02
    final = rows[-1]
    assert final["gibbs"] >= baseline - 0.05
    assert final["objective"] >= baseline - 0.05
    # Small-ε regime: the sampled mechanism's data-independent prior keeps
    # it at least competitive with output perturbation's noised optimum.
    small = rows[0]
    assert small["gibbs"] >= small["output"] - 0.02


def test_e17_batched_chain_speedup(benchmark):
    """ISSUE 8 acceptance: ≥5× lock-step batch vs per-chain loop at d≥16."""
    import time

    _, (x, y), _ = build_data()
    mechanism = RegularizedExponentialMechanism(
        _gibbs_loss(), REGULARIZATION, 1.0, steps=60
    )
    dataset = (x[:50], y[:50])
    chains = 256
    serial_chains = 16
    rng = np.random.default_rng(0)

    benchmark.pedantic(
        lambda: mechanism.release_many(dataset, chains, random_state=rng),
        rounds=3,
        iterations=1,
    )
    start = time.perf_counter()
    samples = mechanism.release_many(dataset, chains, random_state=rng)
    batch_seconds = time.perf_counter() - start
    assert np.asarray(samples).shape == (chains, DIMENSION)

    start = time.perf_counter()
    serial_samples = [
        mechanism.release(dataset, random_state=rng)  # dplint: disable=DPL010 -- the per-chain loop is the slow path being timed against
        for _ in range(serial_chains)
    ]
    serial_seconds = (time.perf_counter() - start) * (chains / serial_chains)
    assert len(serial_samples) == serial_chains

    speedup = serial_seconds / batch_seconds
    print_header(
        "E17b / batched-chain speedup",
        f"{chains} chains, d={DIMENSION}: batch {batch_seconds * 1e3:.0f}ms "
        f"vs projected serial {serial_seconds * 1e3:.0f}ms — {speedup:.1f}×",
    )
    assert speedup >= 5.0


def test_e17_acceptance_rate_stays_healthy(benchmark):
    """The auto step-size heuristic must keep MALA in a mixing regime
    across the ε grid (no silent degenerate all-reject/all-accept runs)."""
    _, (x, y), _ = build_data()

    def run():
        rates = {}
        for eps in EPSILONS:
            mechanism = RegularizedExponentialMechanism(
                _gibbs_loss(), REGULARIZATION, eps
            )
            samples = mechanism.release_many((x, y), 32, random_state=1)
            assert np.asarray(samples).shape == (32, DIMENSION)
            rates[eps] = mechanism.last_acceptance_rate
        return rates

    rates = benchmark.pedantic(run, rounds=1, iterations=1)
    table = ResultTable(["epsilon", "MALA acceptance"])
    for eps, rate in rates.items():
        table.add_row(eps, rate)
    print(table)
    for eps, rate in rates.items():
        assert 0.2 < rate < 0.98, f"acceptance {rate:.2f} at ε={eps}"


def test_e17_single_gibbs_fit_speed(benchmark):
    """Microbenchmark: one sampled-ERM fit (n=800, d=16, 120 MALA steps)."""
    _, (x, y), _ = build_data()
    clf = benchmark(
        lambda: GibbsERMClassifier(_gibbs_loss(), REGULARIZATION, 1.0).fit(
            x, y, random_state=0
        )
    )
    assert clf.coefficients.shape == (DIMENSION,)
