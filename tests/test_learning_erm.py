"""Unit tests for the finite-grid ERM machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.learning import (
    BernoulliTask,
    PredictorGrid,
    empirical_risk,
    empirical_risk_matrix,
)


def absolute_loss(theta, z):
    return abs(theta - z)


class TestEmpiricalRisk:
    def test_mean_of_losses(self):
        assert empirical_risk(absolute_loss, 0.5, [0, 1]) == pytest.approx(0.5)

    def test_rejects_empty_sample(self):
        with pytest.raises(ValidationError):
            empirical_risk(absolute_loss, 0.5, [])

    def test_matrix_shape_and_values(self):
        matrix = empirical_risk_matrix(
            absolute_loss, thetas=[0.0, 1.0], datasets=[[0, 0], [1, 1]]
        )
        assert matrix.shape == (2, 2)
        assert matrix == pytest.approx(np.array([[0.0, 1.0], [1.0, 0.0]]))


class TestPredictorGrid:
    def test_linspace(self):
        grid = PredictorGrid.linspace(absolute_loss, 0.0, 1.0, 5)
        assert len(grid) == 5
        assert grid.thetas[0] == 0.0
        assert grid.thetas[-1] == 1.0

    def test_risk_sensitivity(self):
        grid = PredictorGrid.linspace(absolute_loss, 0.0, 1.0, 3)
        assert grid.risk_sensitivity(10) == pytest.approx(0.1)

    def test_empirical_risks_vector(self):
        grid = PredictorGrid([0.0, 1.0], absolute_loss)
        risks = grid.empirical_risks([0, 0, 1])
        assert risks == pytest.approx([1 / 3, 2 / 3])

    def test_grid_erm(self):
        task = BernoulliTask(p=0.9)
        grid = PredictorGrid.linspace(task.loss, 0.0, 1.0, 11)
        sample = task.sample(500, random_state=0)
        assert grid.erm(list(sample)) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "thetas, loss, sample, match",
        [
            pytest.param(
                [0.0], lambda t, z: np.full(len(z), 5.0), [0], "bounds",
                id="above-bound",
            ),
            pytest.param(
                [0.0, 0.5, 1.0],
                lambda t, z: np.full(len(z), np.nan) if t == 0.5 else abs(t - z),
                [1, 1, 1],
                "bounds",
                id="nan-loss",
            ),
            pytest.param(
                [0.0, 1.0], lambda t, z: abs(t - z[0]), [0, 1, 1], "per record",
                id="scalar-not-broadcast",
            ),
            pytest.param(
                [0.0], absolute_loss, [(0.0, 1.0), (1.0,)], "stack",
                id="ragged-records",
            ),
        ],
    )
    def test_loss_bound_violation_detected(self, thetas, loss, sample, match):
        grid = PredictorGrid(thetas, loss, loss_bounds=(0.0, 1.0))
        with pytest.raises(ValidationError, match=match):
            grid.empirical_risks(sample)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValidationError):
            PredictorGrid([0.0], absolute_loss, loss_bounds=(1.0, 0.0))

    def test_rejects_empty_sample(self):
        grid = PredictorGrid([0.0], absolute_loss)
        with pytest.raises(ValidationError):
            grid.empirical_risks([])

    def test_rejects_empty_grid(self):
        with pytest.raises(ValidationError):
            PredictorGrid([], absolute_loss)

    def test_loss_range(self):
        grid = PredictorGrid([0.0], absolute_loss, loss_bounds=(0.5, 2.5))
        assert grid.loss_range == pytest.approx(2.0)


def reference_risks(grid, sample):
    """The per-record running total the batched path must reproduce."""
    total = np.zeros(len(grid.thetas))
    for z in sample:
        total += [float(grid.loss(theta, z)) for theta in grid.thetas]
    return total / len(sample)


def rational_loss(theta, z):
    """A bounded float loss in [0, 1) built from exactly rounded ops only."""
    d = theta - z
    return d * d / (1.0 + d * d)


class TestBatchedRisksBitIdentity:
    @settings(max_examples=30, deadline=None)
    @given(
        k=st.integers(1, 41),
        n=st.integers(1, 5000),
        seed=st.integers(0, 2**32 - 1),
        bernoulli=st.booleans(),
    )
    def test_matches_per_record_loop(self, k, n, seed, bernoulli):
        rng = np.random.default_rng(seed)
        thetas = np.sort(rng.uniform(0.0, 1.0, size=k))
        if bernoulli:
            task = BernoulliTask(p=float(rng.uniform(0.05, 0.95)))
            grid = PredictorGrid(thetas, task.loss)
            sample = list(task.sample(n, random_state=rng))
        else:
            grid = PredictorGrid(thetas, rational_loss)
            sample = list(rng.uniform(-3.0, 3.0, size=n))
        batched = grid.empirical_risks(sample)
        assert batched.tobytes() == reference_risks(grid, sample).tobytes()
