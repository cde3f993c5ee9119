"""Unit tests for the data-independent bounds and the §3 comparison."""

import numpy as np
import pytest

from repro.core.uniform_bounds import (
    compare_uniform_vs_pac_bayes,
    occam_bound,
    vc_bound,
)
from repro.exceptions import ValidationError
from repro.learning import GaussianThresholdTask, PredictorGrid


class TestOccamBound:
    def test_formula(self):
        out = occam_bound(0.1, class_size=100, n=400, delta=0.05)
        expected = 0.1 + np.sqrt((np.log(100) + np.log(20)) / 800)
        assert out == pytest.approx(expected)

    def test_grows_with_class_size(self):
        small = occam_bound(0.1, 10, 100, 0.05)
        large = occam_bound(0.1, 10_000, 100, 0.05)
        assert large > small

    def test_shrinks_with_n(self):
        assert occam_bound(0.1, 100, 10_000, 0.05) < occam_bound(
            0.1, 100, 100, 0.05
        )

    def test_validates(self):
        with pytest.raises(ValidationError):
            occam_bound(0.1, 0, 100, 0.05)


class TestVcBound:
    def test_shrinks_with_n(self):
        assert vc_bound(0.1, 1, 10_000, 0.05) < vc_bound(0.1, 1, 100, 0.05)

    def test_grows_with_dimension(self):
        assert vc_bound(0.1, 10, 1000, 0.05) > vc_bound(0.1, 1, 1000, 0.05)

    def test_requires_enough_data(self):
        with pytest.raises(ValidationError):
            vc_bound(0.1, 50, 10, 0.05)

    def test_coverage_monte_carlo(self):
        """The VC bound (d=1, thresholds) holds uniformly over the grid on
        every draw — coverage must be ≥ 1-δ (in fact ≈ 1)."""
        task = GaussianThresholdTask(mu=1.0, sigma=1.0)
        thetas = np.linspace(-2, 2, 41)
        delta, n = 0.1, 200
        rng = np.random.default_rng(0)
        violations = 0
        trials = 200
        for _ in range(trials):
            x, y = task.sample(n, random_state=rng)
            for t in thetas[::8]:  # spot-check a sub-grid each draw
                emp = task.empirical_risk(t, x, y)
                if task.true_risk(t) > vc_bound(emp, 1, n, delta):
                    violations += 1
                    break
        assert violations / trials <= delta


class TestSection3Comparison:
    @pytest.fixture
    def setup(self):
        task = GaussianThresholdTask(mu=1.0, sigma=1.0)
        x, y = task.sample(400, random_state=1)
        grid = PredictorGrid(
            np.linspace(-2.0, 2.0, 41),
            lambda t, z: task.zero_one_loss(t, z[:, 0], z[:, 1]),
            loss_bounds=(0.0, 1.0),
        )
        sample = list(zip(x, y))
        return task, grid, sample

    def test_all_certificates_cover_their_targets(self, setup):
        task, grid, sample = setup
        out = compare_uniform_vs_pac_bayes(grid, sample, vc_dimension=1)
        # Occam/VC certify the ERM; the grid ERM's true risk:
        risks = grid.empirical_risks(sample)
        erm_theta = grid.thetas[int(np.argmin(risks))]
        erm_true = task.true_risk(erm_theta)
        assert out["occam"] >= erm_true
        assert out["vc"] >= erm_true

    def test_pac_bayes_tighter_than_vc(self, setup):
        """The paper's §3 claim, measured: the data-dependent certificate
        beats the VC bound on the same task."""
        _, grid, sample = setup
        out = compare_uniform_vs_pac_bayes(grid, sample, vc_dimension=1)
        assert out["seeger"] < out["vc"]

    def test_returns_all_keys(self, setup):
        _, grid, sample = setup
        out = compare_uniform_vs_pac_bayes(grid, sample, vc_dimension=1)
        assert set(out) == {
            "erm_empirical_risk",
            "gibbs_empirical_risk",
            "occam",
            "vc",
            "catoni",
            "seeger",
        }
