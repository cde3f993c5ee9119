"""Unit + property tests for divergences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributions import DiscreteDistribution
from repro.exceptions import ValidationError
from repro.information import (
    binary_kl,
    binary_kl_inverse,
    hockey_stick_divergence,
    jensen_shannon_divergence,
    kl_divergence,
    max_divergence,
    renyi_divergence,
    total_variation,
)
from repro.information.divergences import kl_decomposition


def simplex(size: int):
    return st.lists(st.floats(1e-6, 1.0), min_size=size, max_size=size).map(
        lambda ws: [w / sum(ws) for w in ws]
    )


class TestKL:
    def test_self_divergence_zero(self):
        p = [0.3, 0.7]
        assert kl_divergence(p, p) == pytest.approx(0.0)

    def test_known_value(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(np.log(2))

    def test_infinite_when_not_absolutely_continuous(self):
        assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == np.inf

    def test_asymmetric(self):
        p = [0.9, 0.1]
        q = [0.5, 0.5]
        assert kl_divergence(p, q) != pytest.approx(kl_divergence(q, p))

    def test_accepts_distributions(self):
        a = DiscreteDistribution(["x", "y"], [0.5, 0.5])
        b = DiscreteDistribution(["x", "y"], [0.9, 0.1])
        assert kl_divergence(a, b) > 0

    @given(simplex(4), simplex(4))
    def test_nonnegative(self, p, q):
        assert kl_divergence(p, q) >= -1e-12

    @given(simplex(4), simplex(4))
    def test_pinsker_inequality(self, p, q):
        tv = total_variation(p, q)
        assert kl_divergence(p, q) >= 2 * tv**2 - 1e-9


class TestBinaryKL:
    def test_zero_on_diagonal(self):
        assert binary_kl(0.3, 0.3) == pytest.approx(0.0)

    def test_matches_vector_kl(self):
        assert binary_kl(0.2, 0.6) == pytest.approx(
            kl_divergence([0.2, 0.8], [0.6, 0.4])
        )

    def test_inverse_roundtrip(self):
        p, budget = 0.1, 0.05
        q = binary_kl_inverse(p, budget)
        assert binary_kl(p, q) == pytest.approx(budget, abs=1e-6)

    def test_inverse_zero_budget(self):
        assert binary_kl_inverse(0.3, 0.0) == pytest.approx(0.3)

    def test_inverse_huge_budget_saturates(self):
        assert binary_kl_inverse(0.3, 100.0) == pytest.approx(1.0)

    def test_inverse_monotone_in_budget(self):
        q1 = binary_kl_inverse(0.2, 0.01)
        q2 = binary_kl_inverse(0.2, 0.1)
        assert q1 < q2


def reference_binary_kl(p, q):
    """``binary_kl`` as the fully validated vector KL computes it."""
    return kl_divergence(np.array([p, 1 - p]), np.array([q, 1 - q]))


def reference_binary_kl_inverse(p, budget, tol=1e-12):
    """The Seeger bisection over the fully validated vector KL."""
    if budget == 0:
        return p
    lo, hi = p, 1.0
    if reference_binary_kl(p, 1.0) <= budget:
        return 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if reference_binary_kl(p, mid) <= budget:
            lo = mid
        else:
            hi = mid
    return lo


unit_interval = st.one_of(
    st.sampled_from([0.0, 1.0, 1e-300, 1.0 - 1e-16]),
    st.floats(0.0, 1.0, allow_nan=False),
)


class TestBinaryKLBitIdentity:
    @given(unit_interval, unit_interval)
    def test_binary_kl_matches_vector_kl(self, p, q):
        assert binary_kl(p, q) == reference_binary_kl(p, q)

    @settings(deadline=None)
    @given(
        unit_interval,
        st.one_of(st.just(0.0), st.floats(0.0, 5.0, allow_nan=False)),
    )
    def test_inverse_matches_reference_bisection(self, p, budget):
        assert binary_kl_inverse(p, budget) == reference_binary_kl_inverse(
            p, budget
        )

    @pytest.mark.parametrize(
        "p, q",
        [(np.nan, 0.5), (0.5, np.nan), (-0.1, 0.5), (0.5, 1.1), (1.0 + 1e-9, 0.5)],
    )
    def test_binary_kl_rejects_nan_and_out_of_range(self, p, q):
        with pytest.raises(ValidationError):
            binary_kl(p, q)

    @pytest.mark.parametrize("p", [np.nan, -1e-9, 1.5])
    def test_inverse_rejects_nan_and_out_of_range(self, p):
        with pytest.raises(ValidationError):
            binary_kl_inverse(p, 0.1)


class TestOtherDivergences:
    def test_total_variation_known(self):
        assert total_variation([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_js_symmetric_and_bounded(self):
        p, q = [0.9, 0.1], [0.1, 0.9]
        js = jensen_shannon_divergence(p, q)
        assert js == pytest.approx(jensen_shannon_divergence(q, p))
        assert 0 <= js <= np.log(2) + 1e-12

    def test_js_finite_even_without_common_support(self):
        assert np.isfinite(jensen_shannon_divergence([1.0, 0.0], [0.0, 1.0]))

    def test_renyi_alpha_one_is_kl(self):
        p, q = [0.3, 0.7], [0.6, 0.4]
        assert renyi_divergence(p, q, 1.0) == pytest.approx(kl_divergence(p, q))

    def test_renyi_alpha_inf_is_max_divergence(self):
        p, q = [0.3, 0.7], [0.6, 0.4]
        assert renyi_divergence(p, q, np.inf) == pytest.approx(
            max_divergence(p, q)
        )

    def test_renyi_limits_are_bit_identical(self):
        """α = 1 and α = ∞ run the KL and max-divergence kernels on the same
        vectors, so the limits hold with ``==`` (also on zero-mass atoms)."""
        rng = np.random.default_rng(0)
        for _ in range(200):
            weights = rng.random((2, 9)) ** 3
            weights[rng.random((2, 9)) < 0.2] = 0.0
            weights[:, 0] += 0.1
            p, q = (DiscreteDistribution(range(9), w / w.sum()) for w in weights)
            assert renyi_divergence(p, q, 1.0) == kl_divergence(p, q)
            assert renyi_divergence(p, q, np.inf) == max_divergence(p, q)

    def test_renyi_monotone_in_alpha(self):
        p, q = [0.3, 0.7], [0.6, 0.4]
        values = [renyi_divergence(p, q, a) for a in [0.5, 1.0, 2.0, 10.0]]
        assert all(v1 <= v2 + 1e-12 for v1, v2 in zip(values, values[1:]))

    def test_renyi_rejects_bad_alpha(self):
        with pytest.raises(ValidationError):
            renyi_divergence([0.5, 0.5], [0.5, 0.5], -1.0)


class TestMaxDivergence:
    def test_known_value(self):
        # max log ratio over atoms with positive p mass.
        p, q = [0.8, 0.2], [0.4, 0.6]
        assert max_divergence(p, q) == pytest.approx(np.log(2.0))

    def test_infinite_without_absolute_continuity(self):
        assert max_divergence([0.5, 0.5], [1.0, 0.0]) == np.inf

    def test_dp_characterization(self):
        # For any event S, log P(S)/Q(S) <= D_inf(P||Q): check all 2^k events.
        p = np.array([0.5, 0.3, 0.2])
        q = np.array([0.25, 0.25, 0.5])
        d = max_divergence(p, q)
        for mask in range(1, 8):
            s = [bool(mask & (1 << i)) for i in range(3)]
            ratio = np.log(p[s].sum()) - np.log(q[s].sum())
            assert ratio <= d + 1e-12

    @given(simplex(3), simplex(3))
    def test_upper_bounds_kl(self, p, q):
        assert kl_divergence(p, q) <= max_divergence(p, q) + 1e-9


class TestHockeyStick:
    def test_zero_epsilon_is_like_tv(self):
        p, q = [0.8, 0.2], [0.4, 0.6]
        assert hockey_stick_divergence(p, q, 0.0) == pytest.approx(
            total_variation(p, q)
        )

    def test_large_epsilon_gives_zero(self):
        p, q = [0.8, 0.2], [0.4, 0.6]
        assert hockey_stick_divergence(p, q, 10.0) == pytest.approx(0.0)

    def test_pure_dp_iff_hockey_stick_zero_at_epsilon(self):
        p, q = [0.8, 0.2], [0.4, 0.6]
        eps = max_divergence(p, q)
        assert hockey_stick_divergence(p, q, eps) == pytest.approx(0.0, abs=1e-12)
        assert hockey_stick_divergence(p, q, eps * 0.5) > 0


class TestKLDecomposition:
    def test_identity_holds_exactly(self):
        support = ["t0", "t1", "t2"]
        posteriors = [
            DiscreteDistribution(support, [0.7, 0.2, 0.1]),
            DiscreteDistribution(support, [0.1, 0.3, 0.6]),
        ]
        prior = DiscreteDistribution(support, [0.4, 0.3, 0.3])
        out = kl_decomposition(posteriors, [0.5, 0.5], prior)
        assert out["expected_kl"] == pytest.approx(
            out["mutual_information"] + out["marginal_kl"]
        )

    def test_optimal_prior_zeroes_marginal_kl(self):
        support = ["a", "b"]
        posteriors = [
            DiscreteDistribution(support, [0.9, 0.1]),
            DiscreteDistribution(support, [0.2, 0.8]),
        ]
        weights = [0.3, 0.7]
        # First pass with any prior to get the marginal, then use it.
        first = kl_decomposition(
            posteriors, weights, DiscreteDistribution(support, [0.5, 0.5])
        )
        second = kl_decomposition(posteriors, weights, first["marginal"])
        assert second["marginal_kl"] == pytest.approx(0.0, abs=1e-12)
        assert second["expected_kl"] == pytest.approx(
            second["mutual_information"]
        )

    def test_mutual_information_matches_joint_formula(self):
        from repro.information import mutual_information_from_joint

        support = [0, 1]
        posteriors = [
            DiscreteDistribution(support, [0.9, 0.1]),
            DiscreteDistribution(support, [0.3, 0.7]),
        ]
        weights = np.array([0.4, 0.6])
        joint = weights[:, None] * np.stack(
            [post.probabilities for post in posteriors]
        )
        out = kl_decomposition(
            posteriors, weights, DiscreteDistribution(support, [0.5, 0.5])
        )
        assert out["mutual_information"] == pytest.approx(
            mutual_information_from_joint(joint)
        )

    def test_rejects_mismatched_lengths(self):
        support = [0, 1]
        posteriors = [DiscreteDistribution(support, [0.5, 0.5])]
        prior = DiscreteDistribution(support, [0.5, 0.5])
        with pytest.raises(ValidationError):
            kl_decomposition(posteriors, [0.5, 0.5], prior)
