"""E1 (Figure 1): the learning channel Ẑ → θ, measured.

The paper's Figure 1 is a diagram; this bench regenerates it as numbers:
for the Gibbs channel on a finite universe, the mutual information
I(Ẑ; θ), the sample entropy ceiling, the leakage fraction, and the exact
worst-case privacy loss — each as a function of the privacy parameter ε.

Expected shape (asserted): I(Ẑ;θ) grows monotonically with ε and stays
below H(Ẑ); the exact privacy loss stays below the Theorem 4.1 guarantee.
"""

from benchmarks.common import bernoulli_instance, print_header
from repro.core import GibbsEstimator, LearningChannel
from repro.experiments import ResultTable, ascii_curve

EPSILONS = [0.05, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0]


def build_channel(instance, epsilon):
    estimator = GibbsEstimator.from_privacy(
        instance["grid"], epsilon, expected_sample_size=instance["n"]
    )
    return LearningChannel(
        instance["data_law"],
        n=instance["n"],
        posterior_map=estimator.gibbs.posterior,
    )


def bench_case(epsilon, p=0.7, grid_size=5, n=2):
    """Engine entry point: one (ε, p, grid, n) channel, summarized."""
    instance = bernoulli_instance(p=p, grid_size=grid_size, n=n)
    summary = build_channel(instance, epsilon).leakage_summary()
    return {
        "mutual_information": float(summary["mutual_information"]),
        "sample_entropy": float(summary["sample_entropy"]),
        "leakage_fraction": float(summary["leakage_fraction"]),
        "exact_privacy_loss": float(summary["exact_privacy_loss"]),
    }


BENCH_SPEC = {
    "case": bench_case,
    "grid": {"epsilon": EPSILONS},
    "fixed": {"p": 0.7, "grid_size": 5, "n": 2},
}


def test_e1_channel_information_curve(benchmark):
    instance = bernoulli_instance(p=0.7, grid_size=5, n=2)

    def run():
        return [
            (eps, build_channel(instance, eps).leakage_summary())
            for eps in EPSILONS
        ]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header(
        "E1 / Figure 1",
        "DP learning as an information channel: I(Z;θ) and exact ε vs ε",
    )
    table = ResultTable(
        [
            "epsilon",
            "I(Z;theta) [nats]",
            "H(Z) [nats]",
            "leakage %",
            "measured eps",
        ],
        title="Gibbs learning channel, Bernoulli(0.7), n=2, |Θ|=5",
    )
    infos = []
    for eps, summary in rows:
        infos.append(summary["mutual_information"])
        table.add_row(
            eps,
            summary["mutual_information"],
            summary["sample_entropy"],
            100 * summary["leakage_fraction"],
            summary["exact_privacy_loss"],
        )
    print(table)
    print(
        ascii_curve(
            EPSILONS,
            infos,
            title="mutual information vs privacy parameter",
            x_label="epsilon",
            y_label="I(Z;theta)",
        )
    )

    # Shape assertions: leakage is monotone in ε and below the entropy cap;
    # measured privacy loss never exceeds the nominal ε.
    assert all(a <= b + 1e-12 for a, b in zip(infos, infos[1:]))
    for eps, summary in rows:
        assert summary["mutual_information"] <= summary["sample_entropy"]
        assert summary["exact_privacy_loss"] <= eps + 1e-9


def test_e1_channel_construction_speed(benchmark):
    """Microbenchmark: building the exact channel (16 datasets, 5 outputs)."""
    instance = bernoulli_instance(p=0.7, grid_size=5, n=4)
    result = benchmark(lambda: build_channel(instance, 1.0).mutual_information())
    assert result >= 0.0


def test_e1_adversary_view(benchmark):
    """Bayes adversary posterior over secrets, per released predictor."""
    instance = bernoulli_instance(p=0.7, grid_size=5, n=2)
    channel = build_channel(instance, 1.0)

    def run():
        return {
            theta: channel.adversary_posterior(theta)
            for theta in channel.predictors
        }

    posteriors = benchmark.pedantic(run, rounds=1, iterations=1)

    print_header("E1b", "What the adversary learns from the released θ")
    table = ResultTable(
        ["released theta", "max posterior shift (TV)"],
        title="Bayes posterior over the secret sample vs its prior law",
    )
    for theta, posterior in posteriors.items():
        table.add_row(
            theta, posterior.total_variation_distance(channel.sample_law)
        )
    print(table)
    assert all(
        0 <= p.total_variation_distance(channel.sample_law) < 1
        for p in posteriors.values()
    )
