"""Registry of the reproduction's experiments.

One authoritative table mapping experiment ids to the paper claim and
the bench file that regenerates the result. The
CLI prints it; a test asserts it stays in sync with the bench files on
disk. Anything that needs to name the id range (docs, CLI help) should
derive it via :func:`experiment_span` rather than hard-coding it — a
hard-coded "E1…E12" went stale once already.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ValidationError


@dataclass(frozen=True)
class Experiment:
    """One experiment of the reproduction."""

    id: str
    claim: str
    bench: str


EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment(
        "E1",
        "Figure 1 — DP learning as an information channel, measured",
        "benchmarks/bench_e1_channel.py",
    ),
    Experiment(
        "E2",
        "Theorem 3.1 — PAC-Bayes bounds hold w.p. >= 1-δ",
        "benchmarks/bench_e2_bound_validity.py",
    ),
    Experiment(
        "E3",
        "Lemma 3.2 — the Gibbs posterior minimizes the bound",
        "benchmarks/bench_e3_gibbs_optimality.py",
    ),
    Experiment(
        "E4",
        "Theorem 4.1 — the Gibbs estimator is 2λΔ(R̂)-DP (exact audit)",
        "benchmarks/bench_e4_gibbs_privacy.py",
    ),
    Experiment(
        "E5",
        "Theorem 4.2 — the MI-regularized optimum is the Gibbs channel",
        "benchmarks/bench_e5_tradeoff_fixed_point.py",
    ),
    Experiment(
        "E6",
        "Section 4 — ε tilts the information/risk balance (the frontier)",
        "benchmarks/bench_e6_privacy_information_curve.py",
    ),
    Experiment(
        "E7",
        "Section 1 motivation — generic Gibbs vs specialized private ERM",
        "benchmarks/bench_e7_private_erm.py",
    ),
    Experiment(
        "E8",
        "Theorems 2.3/2.5 — Laplace and exponential mechanism guarantees",
        "benchmarks/bench_e8_mechanisms.py",
    ),
    Experiment(
        "E9",
        "Section 5 future work — I(Ẑ;θ) upper bounds compared (Alvim et al.)",
        "benchmarks/bench_e9_leakage_bounds.py",
    ),
    Experiment(
        "E10",
        "Section 5 future work — private regression & density estimation",
        "benchmarks/bench_e10_regression_density.py",
    ),
    Experiment(
        "E11",
        "Extension — privacy ⇒ low I(Ẑ;θ) ⇒ small generalization gap",
        "benchmarks/bench_e11_generalization.py",
    ),
    Experiment(
        "E12",
        "Extension — membership-inference ROC vs the ε-DP tradeoff curve",
        "benchmarks/bench_e12_membership_inference.py",
    ),
    Experiment(
        "E13",
        "Extension — posterior-sampling privacy and the Fano lower bound",
        "benchmarks/bench_e13_posterior_sampling_fano.py",
    ),
    Experiment(
        "E14",
        "Extension — accountants compared (basic/advanced/RDP); smooth "
        "sensitivity vs global",
        "benchmarks/bench_e14_composition_accounting.py",
    ),
    Experiment(
        "E15",
        "Extension — deployment modes: local DP vs central; continual "
        "release (tree aggregation)",
        "benchmarks/bench_e15_deployment_modes.py",
    ),
    Experiment(
        "E16",
        "Section 3 — data-independent (Occam/VC) vs PAC-Bayes certificates",
        "benchmarks/bench_e16_uniform_vs_pac_bayes.py",
    ),
    Experiment(
        "E17",
        "Extension — regularized exponential mechanism in R^d (batched "
        "MALA) vs perturbation baselines",
        "benchmarks/bench_e17_langevin_erm.py",
    ),
    Experiment(
        "E18",
        "Extension — DJW local minimax rates: mean-estimation MSE by "
        "trust model + numerical data-processing inequality",
        "benchmarks/bench_e18_local_minimax.py",
    ),
    Experiment(
        "E19",
        "Extension — locally-private SGD (privatized per-example "
        "gradients) vs central-DP and non-private learners",
        "benchmarks/bench_e19_local_sgd.py",
    ),
)


def experiment_span() -> str:
    """The registry's id range as text (e.g. ``"E1–E16"``), never stale."""
    return f"{EXPERIMENTS[0].id}–{EXPERIMENTS[-1].id}"


def get_experiment(experiment_id: str) -> Experiment:
    """Look up one experiment by id (case-insensitive)."""
    wanted = experiment_id.strip().upper()
    for experiment in EXPERIMENTS:
        if experiment.id == wanted:
            return experiment
    raise ValidationError(
        f"unknown experiment {experiment_id!r}; known ids: "
        + ", ".join(e.id for e in EXPERIMENTS)
    )
