"""Unit tests for the Blahut–Arimoto algorithms."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.information import channel_capacity, rate_distortion
from repro.information.blahut_arimoto import rate_distortion_free_energy
from repro.information.mutual_information import mutual_information_from_joint


class TestChannelCapacity:
    def test_bsc_closed_form(self):
        # C = log2 - H(f) nats for a binary symmetric channel.
        f = 0.11
        matrix = [[1 - f, f], [f, 1 - f]]
        expected = np.log(2) + f * np.log(f) + (1 - f) * np.log(1 - f)
        result = channel_capacity(matrix)
        assert result.converged
        assert result.value == pytest.approx(expected, abs=1e-8)

    def test_bsc_capacity_achieving_input_is_uniform(self):
        result = channel_capacity([[0.8, 0.2], [0.2, 0.8]])
        assert result.input_distribution == pytest.approx([0.5, 0.5], abs=1e-6)

    def test_noiseless_channel(self):
        result = channel_capacity(np.eye(3))
        assert result.value == pytest.approx(np.log(3), abs=1e-8)

    def test_useless_channel_capacity_zero(self):
        result = channel_capacity([[0.5, 0.5], [0.5, 0.5]])
        assert result.value == pytest.approx(0.0, abs=1e-10)

    def test_erasure_channel(self):
        # Binary erasure channel with erasure prob e: C = (1 - e) log 2.
        e = 0.3
        matrix = [[1 - e, e, 0.0], [0.0, e, 1 - e]]
        result = channel_capacity(matrix)
        assert result.value == pytest.approx((1 - e) * np.log(2), abs=1e-7)

    def test_rejects_bad_matrix(self):
        with pytest.raises(ValidationError):
            channel_capacity([[0.5, 0.6], [0.5, 0.5]])

    @pytest.mark.parametrize("shape", [(0, 3), (0, 0)])
    def test_rejects_a_channel_without_inputs(self, shape):
        # Used to raise ZeroDivisionError from the uniform start 1/n.
        with pytest.raises(ValidationError, match="at least one row"):
            channel_capacity(np.zeros(shape))

    def test_capacity_no_less_than_any_input(self):
        rng = np.random.default_rng(0)
        matrix = rng.dirichlet(np.ones(3), size=4)
        result = channel_capacity(matrix)
        for _ in range(20):
            p = rng.dirichlet(np.ones(4))
            joint = p[:, None] * matrix
            assert result.value >= mutual_information_from_joint(joint) - 1e-7


class TestRateDistortion:
    def test_zero_distortion_channel_found_when_cheap(self):
        # With beta large, the solver should pick the zero-distortion map.
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        result = rate_distortion([0.5, 0.5], d, beta=50.0)
        assert result.distortion < 1e-3
        assert result.rate == pytest.approx(np.log(2), abs=1e-2)

    def test_tiny_beta_gives_near_zero_rate(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        result = rate_distortion([0.5, 0.5], d, beta=1e-4)
        assert result.rate < 1e-6
        assert result.distortion == pytest.approx(0.5, abs=1e-3)

    def test_objective_decreases_with_more_iterations(self):
        rng = np.random.default_rng(1)
        d = rng.uniform(size=(4, 5))
        short = rate_distortion([0.25] * 4, d, beta=2.0, max_iterations=2, tol=0)
        long = rate_distortion([0.25] * 4, d, beta=2.0, max_iterations=200, tol=0)
        assert long.value <= short.value + 1e-12

    def test_optimal_channel_is_gibbs_tilt_of_marginal(self):
        rng = np.random.default_rng(2)
        d = rng.uniform(size=(3, 4))
        result = rate_distortion([0.2, 0.5, 0.3], d, beta=3.0)
        q = result.output_distribution
        expected = q[None, :] * np.exp(-3.0 * d)
        expected /= expected.sum(axis=1, keepdims=True)
        assert result.channel_matrix == pytest.approx(expected, abs=1e-6)

    def test_beats_random_channels(self):
        rng = np.random.default_rng(3)
        d = rng.uniform(size=(3, 3))
        p = np.array([0.3, 0.3, 0.4])
        beta = 2.0
        result = rate_distortion(p, d, beta=beta)
        for _ in range(50):
            k = rng.dirichlet(np.ones(3), size=3)
            joint = p[:, None] * k
            value = mutual_information_from_joint(joint) + beta * float(
                (joint * d).sum()
            )
            assert result.value <= value + 1e-9

    def test_free_energy_matches_lagrangian_optimum(self):
        rng = np.random.default_rng(4)
        d = rng.uniform(size=(4, 6))
        p = rng.dirichlet(np.ones(4))
        beta = 1.7
        result = rate_distortion(p, d, beta=beta)
        assert rate_distortion_free_energy(p, d, beta) == pytest.approx(
            result.value, abs=1e-6
        )

    def test_rejects_negative_distortion(self):
        with pytest.raises(ValidationError):
            rate_distortion([1.0], [[-0.5]], beta=1.0)

    def test_rejects_a_distortion_matrix_without_outputs(self):
        # Used to raise ZeroDivisionError from the uniform start 1/m.
        with pytest.raises(ValidationError, match="at least one column"):
            rate_distortion([0.5, 0.5], np.zeros((2, 0)), beta=1.0)

    def test_rejects_an_empty_iteration_budget(self):
        # Zero iterations used to return (or fail on) an uninitialized
        # channel matrix.
        with pytest.raises(ValidationError, match="max_iterations"):
            rate_distortion(
                [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]], 1.0, max_iterations=0
            )

    def test_rejects_zero_initial_output_mass(self):
        with pytest.raises(ValidationError):
            rate_distortion(
                [0.5, 0.5],
                [[0.0, 1.0], [1.0, 0.0]],
                beta=1.0,
                initial_output=[1.0, 0.0],
            )

    def test_rate_decreases_in_privacy(self):
        # Smaller beta (stronger privacy) => less information released.
        rng = np.random.default_rng(5)
        d = rng.uniform(size=(4, 4))
        p = np.full(4, 0.25)
        rates = [rate_distortion(p, d, beta=b).rate for b in [0.1, 1.0, 10.0]]
        assert rates[0] <= rates[1] + 1e-9 <= rates[2] + 2e-9


# A near-degenerate rate-distortion instance whose two distortion rows
# differ only at the ~1e-11 level: the Lagrangian's true descent per
# iteration shrinks below float noise, and around iteration 27 the
# computed objective INCREASES by ~5.3e-15. Found by randomized search;
# every number is pinned so the trajectory is bit-reproducible.
_NEAR_DEGENERATE = {
    "source": [0.8051948789883169, 0.1948051210116832],
    "distortion": [
        [
            0.5681923142956917,
            0.8999457934412621,
            0.4478583619952511,
            0.40661284503649486,
        ],
        [
            0.5681923143012494,
            0.8999457934416549,
            0.447858361995477,
            0.4066128450395298,
        ],
    ],
    "beta": 31.608710495005962,
}


class TestConvergenceDiagnostics:
    """Regression: a float-noise objective *increase* is not convergence.

    The original stopping rule ``previous - value < tol`` is satisfied by
    any increase, so a run that went UP by more than the tolerance was
    reported ``converged=True``. The fix classifies the final gap: beyond-
    tolerance increases terminate with ``converged=False`` and
    ``monotone=False``, and the gap itself is surfaced on the result.
    """

    def test_non_monotone_step_is_not_reported_converged(self):
        result = rate_distortion(
            _NEAR_DEGENERATE["source"],
            _NEAR_DEGENERATE["distortion"],
            _NEAR_DEGENERATE["beta"],
            tol=1e-15,
        )
        assert not result.converged
        assert not result.monotone
        assert result.final_gap < -1e-15  # the increase, surfaced
        assert result.iterations == 27

    def test_non_monotone_raises_when_asked(self):
        from repro.exceptions import ConvergenceError

        with pytest.raises(ConvergenceError, match="objective increased"):
            rate_distortion(
                _NEAR_DEGENERATE["source"],
                _NEAR_DEGENERATE["distortion"],
                _NEAR_DEGENERATE["beta"],
                tol=1e-15,
                raise_on_failure=True,
            )

    def test_same_instance_converges_at_default_tolerance(self):
        # At the default tol the run stops before noise dominates; the
        # flags then report an ordinary monotone convergence.
        result = rate_distortion(
            _NEAR_DEGENERATE["source"],
            _NEAR_DEGENERATE["distortion"],
            _NEAR_DEGENERATE["beta"],
        )
        assert result.converged
        assert result.monotone
        assert abs(result.final_gap) < 1e-12

    def test_monotone_instance_reports_gap_and_flags(self):
        result = rate_distortion([0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]], 1.0)
        assert result.converged
        assert result.monotone
        assert -1e-12 < result.final_gap < 1e-12

    def test_capacity_final_gap_is_certified_bound_gap(self):
        result = channel_capacity([[0.8, 0.2], [0.2, 0.8]], tol=1e-10)
        assert result.converged
        assert result.monotone
        assert 0.0 <= result.final_gap < 1e-10

    def test_iteration_budget_exhaustion_still_flagged_monotone(self):
        rng = np.random.default_rng(11)
        d = rng.uniform(size=(6, 6))
        result = rate_distortion(
            np.full(6, 1 / 6), d, beta=5.0, tol=0.0, max_iterations=3
        )
        assert not result.converged
        assert result.monotone
