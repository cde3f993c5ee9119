"""Unit tests for Rényi differential privacy."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.learning import BernoulliTask, PredictorGrid
from repro.privacy import (
    RenyiSpec,
    measure_rdp,
    optimal_rdp_to_dp,
    rdp_of_pure_dp,
)


class TestRenyiSpec:
    def test_rejects_alpha_at_most_one(self):
        with pytest.raises(ValidationError):
            RenyiSpec(alpha=1.0, rho=0.1)

    def test_conversion_formula(self):
        spec = RenyiSpec(alpha=10.0, rho=0.5)
        out = spec.to_approximate_dp(delta=1e-5)
        assert out.epsilon == pytest.approx(0.5 + np.log(1e5) / 9.0)
        assert out.delta == 1e-5

    def test_str(self):
        assert "RDP" in str(RenyiSpec(2.0, 0.1))


class TestClosedForms:
    def test_pure_dp_curve_small_epsilon_quadratic(self):
        # Exact RR curve behaves as α·ε²/2 for small ε.
        eps, alpha = 0.01, 2.0
        spec = rdp_of_pure_dp(epsilon=eps, alpha=alpha)
        assert spec.rho == pytest.approx(alpha * eps**2 / 2, rel=0.05)

    def test_pure_dp_curve_is_exact_rr_divergence(self):
        from repro.information import renyi_divergence

        eps, alpha = 0.8, 3.0
        p = np.exp(eps) / (1 + np.exp(eps))
        expected = renyi_divergence([p, 1 - p], [1 - p, p], alpha)
        assert rdp_of_pure_dp(eps, alpha).rho == pytest.approx(expected)

    def test_pure_dp_curve_caps_at_epsilon(self):
        spec = rdp_of_pure_dp(epsilon=3.0, alpha=500.0)
        assert spec.rho <= 3.0 + 1e-12

    def test_pure_dp_curve_dominates_any_dp_mechanism(self):
        """No ε-DP pair of output laws exceeds the RR curve at any α —
        randomized response is extremal for Rényi leakage."""
        from repro.core import GibbsPosterior
        from repro.learning import BernoulliTask, PredictorGrid
        from repro.privacy.renyi import measure_rdp

        task = BernoulliTask(p=0.7)
        grid = PredictorGrid.linspace(task.loss, 0.0, 1.0, 5)
        gibbs = GibbsPosterior(grid, temperature=3.0)
        eps = gibbs.privacy_epsilon(2)
        for alpha in [1.5, 2.0, 8.0]:
            measured = measure_rdp(gibbs.posterior, [0, 1], 2, alpha)
            assert measured <= rdp_of_pure_dp(eps, alpha).rho + 1e-9


class TestComposition:
    def test_rdp_beats_basic_composition_for_many_small_queries(self):
        """The reason RDP exists: k small-ε queries convert to a much
        smaller total ε than basic composition's k·ε."""
        eps, k, delta = 0.1, 200, 1e-6
        basic_epsilon = k * eps

        def curve(alpha):
            return RenyiSpec(alpha, k * rdp_of_pure_dp(eps, alpha).rho)

        converted = optimal_rdp_to_dp(curve, delta)
        assert converted.epsilon < basic_epsilon

    def test_optimal_conversion_no_worse_than_any_alpha(self):
        def curve(alpha):
            return RenyiSpec(alpha, 10 * rdp_of_pure_dp(1.0, alpha).rho)

        best = optimal_rdp_to_dp(curve, 1e-5)
        for alpha in [1.5, 2.0, 8.0, 32.0]:
            assert best.epsilon <= curve(alpha).to_approximate_dp(1e-5).epsilon + 1e-9


class TestMeasureRdp:
    def test_gibbs_rdp_below_pure_dp_guarantee(self):
        """Measured Rényi divergence of the Gibbs mechanism at finite α
        never exceeds the pure-DP bound (Rényi is monotone in α)."""
        task = BernoulliTask(p=0.7)
        grid = PredictorGrid.linspace(task.loss, 0.0, 1.0, 5)
        from repro.core import GibbsPosterior

        gibbs = GibbsPosterior(grid, temperature=3.0)
        pure = gibbs.privacy_epsilon(2)
        for alpha in [1.5, 2.0, 8.0]:
            measured = measure_rdp(gibbs.posterior, [0, 1], 2, alpha)
            assert measured <= pure + 1e-9

    def test_measured_rdp_monotone_in_alpha(self):
        task = BernoulliTask(p=0.7)
        grid = PredictorGrid.linspace(task.loss, 0.0, 1.0, 5)
        from repro.core import GibbsPosterior

        gibbs = GibbsPosterior(grid, temperature=5.0)
        values = [
            measure_rdp(gibbs.posterior, [0, 1], 2, alpha)
            for alpha in [1.5, 2.0, 4.0, 16.0]
        ]
        assert all(a <= b + 1e-10 for a, b in zip(values, values[1:]))

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValidationError):
            measure_rdp(lambda d: None, [0, 1], 1, alpha=0.5)
