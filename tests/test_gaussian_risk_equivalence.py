"""The Gaussian tasks' exact risks read ``scipy.special.ndtr``, bit for bit.

``GaussianThresholdTask`` and ``TwoGaussiansTask`` used to take Φ from
``scipy.stats.norm.cdf``; they now call ``scipy.special.ndtr``, so that
E16 never imports ``scipy.stats``. ``norm.cdf`` is ``ndtr`` under
``rv_continuous``'s argument handling. The swap is pinned to the last bit
(``float.hex``) against verbatim copies of the old methods, on seeded
arguments, on E16's threshold grid and on signed zeros, infinities and NaN.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import norm

from repro.learning import GaussianThresholdTask, TwoGaussiansTask


class ReferenceGaussianThresholdTask(GaussianThresholdTask):
    """The old ``scipy.stats`` methods, verbatim."""

    def true_risk(self, threshold: float) -> float:
        t = float(threshold)
        return float(
            0.5 * norm.cdf((t - self.mu) / self.sigma)
            + 0.5 * norm.cdf(-(t + self.mu) / self.sigma)
        )

    def bayes_risk(self) -> float:
        return float(norm.cdf(-self.mu / self.sigma))


class ReferenceTwoGaussiansTask(TwoGaussiansTask):
    """The old ``scipy.stats`` methods, verbatim."""

    def true_risk(self, theta) -> float:
        theta = np.asarray(theta, dtype=float)
        norm_theta = float(np.linalg.norm(theta))
        if norm_theta == 0:
            return 0.5
        return float(norm.cdf(-float(theta @ self.mean) / norm_theta))

    def bayes_risk(self) -> float:
        return float(norm.cdf(-np.linalg.norm(self.mean)))


SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300, 40.0, -40.0]


def test_ndtr_is_norm_cdf_on_seeded_and_special_arguments():
    rng = np.random.default_rng(0)
    arguments = np.concatenate([
        rng.normal(scale=5.0, size=10_000),
        rng.uniform(-40.0, 40.0, size=10_000),
        SPECIAL,
    ])
    assert [float(v).hex() for v in ndtr(arguments)] == [
        float(v).hex() for v in norm.cdf(arguments)
    ]


@pytest.mark.parametrize("mu, sigma", [(1.0, 1.0), (0.3, 2.5), (4.0, 0.1)])
def test_threshold_task_risks(mu, sigma):
    task = GaussianThresholdTask(mu=mu, sigma=sigma)
    reference = ReferenceGaussianThresholdTask(mu=mu, sigma=sigma)
    rng = np.random.default_rng(1)
    # E16's predictor grid is ``linspace(-2, 2, k)``.
    thresholds = [*np.linspace(-2.0, 2.0, 41), *rng.normal(scale=3.0, size=500),
                  *SPECIAL]
    for t in thresholds:
        assert task.true_risk(t).hex() == reference.true_risk(t).hex(), t
    assert task.bayes_risk().hex() == reference.bayes_risk().hex()


@pytest.mark.parametrize("mean", [[1.38, 0.58], [0.5, -0.2, 0.1], [3.0]])
def test_two_gaussians_task_risks(mean):
    task = TwoGaussiansTask(mean)
    reference = ReferenceTwoGaussiansTask(mean)
    rng = np.random.default_rng(2)
    thetas = [*rng.normal(size=(500, len(mean))), np.zeros(len(mean)),
              -np.asarray(mean, dtype=float), np.full(len(mean), -0.0)]
    for theta in thetas:
        assert task.true_risk(theta).hex() == reference.true_risk(theta).hex()
    assert task.bayes_risk().hex() == reference.bayes_risk().hex()
