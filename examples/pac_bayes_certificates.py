"""Scenario: shipping a model with a PAC-Bayes risk certificate.

A team trains a threshold classifier on 1-D sensor readings and must ship
it with (a) a provable generalization certificate and (b) a privacy
guarantee. The Gibbs posterior gives both at once — Lemma 3.2 says it is
the bound-minimizing posterior, Theorem 4.1 says it is differentially
private — and this script shows the temperature λ steering the trade:
small λ → strong privacy, loose certificate; large λ → sharp posterior,
weak privacy.

Run:  python examples/pac_bayes_certificates.py
"""

import numpy as np

from repro import (
    DiscreteDistribution,
    GaussianThresholdTask,
    PredictorGrid,
    evaluate_all_bounds,
)
from repro.core import GibbsPosterior
from repro.experiments import ResultTable

N = 400
DELTA = 0.05


def main() -> None:
    task = GaussianThresholdTask(mu=1.0, sigma=1.0)
    x, y = task.sample(N, random_state=0)
    sample = list(zip(x, y))

    grid = PredictorGrid(
        np.linspace(-2.0, 2.0, 41),
        lambda t, z: task.zero_one_loss(t, z[:, 0], z[:, 1]),
        loss_bounds=(0.0, 1.0),
    )
    prior = DiscreteDistribution.uniform(grid.thetas)
    risks = grid.empirical_risks(sample)

    print(f"threshold classification, n={N}, Bayes risk = "
          f"{task.bayes_risk():.4f}\n")

    table = ResultTable(
        [
            "temperature λ",
            "privacy ε = 2λ/n",
            "emp Gibbs risk",
            "true Gibbs risk",
            "Seeger certificate",
            "Catoni certificate",
        ],
        title=f"certificates at δ={DELTA} (all must cover the true risk)",
    )
    for lam in [2.0, 10.0, np.sqrt(N), 60.0, 200.0]:
        gibbs = GibbsPosterior(grid, lam, prior=prior)
        posterior = gibbs.posterior(sample)
        report = evaluate_all_bounds(
            posterior, prior, risks, N, delta=DELTA, temperature=lam
        )
        true_risk = sum(p * task.true_risk(t) for t, p in posterior)
        table.add_row(
            lam,
            gibbs.privacy_epsilon(N),
            report.empirical_risk,
            true_risk,
            report.seeger,
            report.catoni,
        )
        assert report.seeger >= true_risk
    print(table)

    print(
        "\nreading: raising λ sharpens the posterior (lower risk) but"
        "\nweakens privacy linearly (ε = 2λ/n) and eventually inflates the"
        "\nKL term in the certificate — the three-way tension the paper's"
        "\nSection 4 formalizes as mutual-information regularization."
    )


if __name__ == "__main__":
    main()
