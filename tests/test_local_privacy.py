"""Unit tests for the DJW local-privacy workload (`repro.local_privacy`).

Mechanism-level: the ℓ2/ℓ∞ sampling channels are exactly on-sphere,
unbiased, and validated at the edges. Estimator-level: the locally
private mean/median land near the truth and the rate helpers order the
three trust models correctly. Information-level: `dpi_report` certifies
contraction and the DJW bound on a real channel, and rejects claims a
non-private channel cannot meet. Statistical ε-audits for these channels
live in the tier-2 `local`/`local-sampling` audit families.
"""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.learning import LogisticLoss, TwoGaussiansTask
from repro.local_privacy import (
    KRandomizedResponse,
    L2SamplingMechanism,
    LInfSamplingMechanism,
    PrivateSGDClassifier,
    central_private_mean,
    central_private_rate,
    dpi_report,
    hypercube_unbiasing_constant,
    local_minimax_rate,
    locally_private_mean,
    locally_private_median,
    nonprivate_rate,
    sphere_unbiasing_constant,
)

EPSILON_EDGE_CASES = [0.0, -2.0, float("nan"), float("inf")]


class TestUnbiasingConstants:
    def test_sphere_known_values(self):
        assert sphere_unbiasing_constant(1) == pytest.approx(1.0)
        assert sphere_unbiasing_constant(2) == pytest.approx(2.0 / np.pi)
        assert sphere_unbiasing_constant(3) == pytest.approx(0.5)

    def test_hypercube_known_values(self):
        assert hypercube_unbiasing_constant(1) == pytest.approx(1.0)
        assert hypercube_unbiasing_constant(2) == pytest.approx(0.5)
        assert hypercube_unbiasing_constant(3) == pytest.approx(0.5)

    def test_constants_match_monte_carlo(self):
        """κ_d is E|⟨u, e₁⟩| over the uniform sphere/hypercube corners —
        check the closed forms against a direct average once."""
        rng = np.random.default_rng(0)
        d = 5
        g = rng.standard_normal((200_000, d))
        sphere = np.abs(g[:, 0] / np.linalg.norm(g, axis=1)).mean()
        assert sphere == pytest.approx(sphere_unbiasing_constant(d), abs=5e-3)
        corners = rng.choice([-1.0, 1.0], size=(200_000, d))
        cube = np.abs(corners.mean(axis=1)).mean()
        assert cube == pytest.approx(hypercube_unbiasing_constant(d), abs=5e-3)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_dimension_validated(self, bad):
        with pytest.raises(ValidationError):
            sphere_unbiasing_constant(bad)
        with pytest.raises(ValidationError):
            hypercube_unbiasing_constant(bad)


class TestL2SamplingMechanism:
    def test_reports_lie_on_the_scale_sphere(self):
        mech = L2SamplingMechanism(3, epsilon=1.0)
        rng = np.random.default_rng(1)
        records = rng.uniform(-0.5, 0.5, size=(200, 3))
        reports = mech.privatize_many(records, random_state=rng)
        norms = np.linalg.norm(reports, axis=1)
        assert norms == pytest.approx(mech.scale)

    def test_unbiased(self):
        mech = L2SamplingMechanism(3, epsilon=2.0)
        record = np.array([0.4, -0.3, 0.2])
        repeated = np.tile(record, (40_000, 1))
        reports = mech.privatize_many(repeated, random_state=0)
        assert reports.mean(axis=0) == pytest.approx(record, abs=0.06)

    def test_second_moment_is_scale_squared(self):
        mech = L2SamplingMechanism(8, epsilon=1.0)
        assert mech.per_record_second_moment() == pytest.approx(
            mech.scale**2
        )
        assert mech.predicted_mean_squared_error(100) == pytest.approx(
            mech.scale**2 / 100
        )

    def test_zero_record_is_valid(self):
        mech = L2SamplingMechanism(4, epsilon=1.0)
        report = mech.privatize(np.zeros(4), random_state=0)
        assert np.linalg.norm(report) == pytest.approx(mech.scale)

    @pytest.mark.parametrize("zeroed", [1, 3])
    def test_zero_direction_uniform_stays_on_the_sphere(self, zeroed):
        # Regression: uniform() can return exactly 0.0 and ndtri(0) = -inf,
        # so the direction used to be inf/inf — [nan, -0, -0] with one
        # zeroed column, all NaN with three.
        mech = L2SamplingMechanism(3, epsilon=1.0)
        u = np.full((1, 5), 0.25)
        u[0, :zeroed] = 0.0
        report = mech._kernel(np.array([[0.6, 0.0, 0.8]]), u)[0]
        assert np.isfinite(report).all()
        assert np.linalg.norm(report) == pytest.approx(mech.scale, rel=1e-12)

    def test_rejects_norm_above_one(self):
        mech = L2SamplingMechanism(3, epsilon=1.0)
        with pytest.raises(ValidationError):
            mech.privatize(np.array([1.0, 1.0, 0.0]), random_state=0)

    def test_rejects_wrong_width(self):
        mech = L2SamplingMechanism(3, epsilon=1.0)
        with pytest.raises(ValidationError):
            mech.privatize(np.array([0.1, 0.2]), random_state=0)
        with pytest.raises(ValidationError):
            mech.privatize_many(np.zeros((5, 2)), random_state=0)

    def test_rejects_non_finite_records(self):
        mech = L2SamplingMechanism(2, epsilon=1.0)
        with pytest.raises(ValidationError):
            mech.privatize(np.array([np.nan, 0.0]), random_state=0)

    @pytest.mark.parametrize("epsilon", EPSILON_EDGE_CASES)
    def test_epsilon_boundaries_rejected(self, epsilon):
        with pytest.raises(ValidationError):
            L2SamplingMechanism(3, epsilon=epsilon)

    def test_dimension_validated(self):
        with pytest.raises(ValidationError):
            L2SamplingMechanism(0, epsilon=1.0)


class TestLInfSamplingMechanism:
    def test_reports_are_scaled_corners(self):
        mech = LInfSamplingMechanism(3, epsilon=1.0)
        rng = np.random.default_rng(2)
        records = rng.uniform(-1.0, 1.0, size=(200, 3))
        reports = mech.privatize_many(records, random_state=rng)
        assert np.abs(reports) == pytest.approx(mech.scale)

    def test_unbiased(self):
        mech = LInfSamplingMechanism(3, epsilon=2.0)
        record = np.array([0.6, -0.2, 0.9])
        repeated = np.tile(record, (40_000, 1))
        reports = mech.privatize_many(repeated, random_state=3)
        assert reports.mean(axis=0) == pytest.approx(record, abs=0.12)

    def test_one_bit_keep_probability(self):
        """At d = 1 the channel is rescaled binary randomized response:
        the report agrees in sign with the record w.p. 1/(1+e^{-ε})."""
        eps = 1.0
        mech = LInfSamplingMechanism(1, epsilon=eps)
        reports = mech.privatize_many(
            np.ones((20_000, 1)), random_state=4
        )
        agree = float((reports[:, 0] > 0).mean())
        assert agree == pytest.approx(1.0 / (1.0 + np.exp(-eps)), abs=0.01)

    def test_second_moment_is_scale_squared_times_d(self):
        mech = LInfSamplingMechanism(5, epsilon=1.0)
        assert mech.per_record_second_moment() == pytest.approx(
            5 * mech.scale**2
        )

    def test_rejects_coordinates_above_one(self):
        mech = LInfSamplingMechanism(3, epsilon=1.0)
        with pytest.raises(ValidationError):
            mech.privatize(np.array([0.0, 1.5, 0.0]), random_state=0)

    @pytest.mark.parametrize("epsilon", EPSILON_EDGE_CASES)
    def test_epsilon_boundaries_rejected(self, epsilon):
        with pytest.raises(ValidationError):
            LInfSamplingMechanism(3, epsilon=epsilon)


class TestMeanEstimators:
    def _records(self, n=3_000, d=4, seed=5):
        rng = np.random.default_rng(seed)
        truth = np.zeros(d)
        truth[0] = 0.3
        noise = rng.uniform(-1.0, 1.0, size=(n, d))
        noise /= np.maximum(
            np.linalg.norm(noise, axis=1, keepdims=True) / 0.5, 1.0
        )
        return truth + noise, truth

    def test_local_mean_near_truth_but_noisier_than_central(self):
        records, truth = self._records()
        mechanism = L2SamplingMechanism(records.shape[1], epsilon=1.0)
        local = locally_private_mean(records, mechanism, random_state=6)
        central = central_private_mean(records, 1.0, random_state=6)
        local_error = np.linalg.norm(local - truth)
        central_error = np.linalg.norm(central - truth)
        assert local_error < 0.5
        assert central_error < local_error

    def test_local_mean_requires_local_mechanism(self):
        with pytest.raises(ValidationError):
            locally_private_mean(np.zeros((3, 2)), mechanism=object())

    def test_central_mean_validation(self):
        with pytest.raises(ValidationError):
            central_private_mean(np.zeros((2, 2)), epsilon=0.0)
        with pytest.raises(ValidationError):
            central_private_mean(np.full((2, 2), 2.0), epsilon=1.0)
        with pytest.raises(ValidationError):
            central_private_mean(np.zeros(3), epsilon=1.0)


class TestPrivateMedian:
    def test_estimate_near_truth_and_inside_bounds(self):
        rng = np.random.default_rng(7)
        values = rng.uniform(-0.6, 0.8, size=2_000)
        estimate = locally_private_median(values, 8.0, random_state=rng)
        assert -1.0 <= estimate <= 1.0
        assert abs(estimate - np.median(values)) < 0.1

    def test_respects_custom_bounds(self):
        rng = np.random.default_rng(8)
        values = rng.uniform(2.0, 6.0, size=2_000)
        estimate = locally_private_median(
            values, 8.0, lower=0.0, upper=10.0, random_state=rng
        )
        assert 0.0 <= estimate <= 10.0
        assert abs(estimate - np.median(values)) < 0.6

    def test_validation(self):
        with pytest.raises(ValidationError):
            locally_private_median([], 1.0)
        with pytest.raises(ValidationError):
            locally_private_median([0.5, 2.0], 1.0)
        with pytest.raises(ValidationError):
            locally_private_median([0.5], 1.0, lower=1.0, upper=-1.0)
        with pytest.raises(ValidationError):
            locally_private_median([0.5], 0.0)
        with pytest.raises(ValidationError):
            locally_private_median([0.5, np.nan], 1.0)


class TestRates:
    def test_trust_ordering_at_small_epsilon(self):
        d, n, eps = 8, 1_000, 0.5
        assert nonprivate_rate(d, n) < central_private_rate(d, n, eps)
        assert central_private_rate(d, n, eps) < local_minimax_rate(d, n, eps)

    def test_local_rate_saturates_at_one(self):
        assert local_minimax_rate(100, 10, 0.1) == 1.0

    def test_rates_decrease_in_n_and_epsilon(self):
        d = 4
        assert local_minimax_rate(d, 2_000, 1.0) < local_minimax_rate(
            d, 1_000, 1.0
        )
        assert local_minimax_rate(d, 10_000, 2.0) < local_minimax_rate(
            d, 10_000, 1.0
        )
        assert central_private_rate(d, 2_000, 1.0) < central_private_rate(
            d, 1_000, 1.0
        )

    def test_central_penalty_vanishes_faster(self):
        """The reason to trust a curator: the excess over the
        non-private rate decays like 1/n² centrally but only 1/n
        locally, so the central/non-private ratio tends to 1."""
        d, eps = 4, 1.0
        small = central_private_rate(d, 100, eps) / nonprivate_rate(d, 100)
        large = central_private_rate(d, 100_000, eps) / nonprivate_rate(
            d, 100_000
        )
        assert large < small
        assert large == pytest.approx(1.0, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValidationError):
            nonprivate_rate(0, 10)
        with pytest.raises(ValidationError):
            local_minimax_rate(3, 0, 1.0)
        with pytest.raises(ValidationError):
            central_private_rate(3, 10, 0.0)


class TestDpiReport:
    P = [0.7, 0.1, 0.1, 0.1]
    Q = [0.1, 0.1, 0.1, 0.7]

    def _channel(self, epsilon=1.0):
        return KRandomizedResponse(
            ("a", "b", "c", "d"), epsilon=epsilon
        ).channel_matrix()

    def test_theorem_holds_on_krr_channel(self):
        report = dpi_report(self._channel(), self.P, self.Q, 1.0)
        assert report["kl_contracts"]
        assert report["tv_contracts"]
        assert report["bound_holds"]
        assert report["output_kl"] < report["input_kl"]
        assert report["output_tv"] < report["input_tv"]
        assert report["symmetrized_output_kl"] <= report["djw_bound"]

    def test_identity_channel_fails_a_small_claim(self):
        """A non-private (identity) channel cannot meet the DJW bound
        for a small claimed ε — the report must say so."""
        report = dpi_report(np.eye(4), self.P, self.Q, 0.1)
        assert not report["bound_holds"]
        assert report["kl_contracts"]  # trivially, equality

    def test_bound_tightens_with_epsilon(self):
        loose = dpi_report(self._channel(4.0), self.P, self.Q, 4.0)
        tight = dpi_report(self._channel(0.5), self.P, self.Q, 0.5)
        assert tight["output_kl"] < loose["output_kl"]
        assert tight["djw_bound"] < loose["djw_bound"]

    def test_validation(self):
        with pytest.raises(ValidationError):
            dpi_report(self._channel(), self.P, self.Q, 0.0)
        with pytest.raises(ValidationError):
            dpi_report(self._channel(), [0.5, 0.5], self.Q, 1.0)
        with pytest.raises(ValidationError):
            dpi_report(np.full((4, 4), 0.5), self.P, self.Q, 1.0)
        with pytest.raises(ValidationError):
            dpi_report(np.zeros(4), self.P, self.Q, 1.0)


class TestPrivateSGDClassifier:
    def _data(self, n=1_500, d=2, seed=9):
        mean = np.zeros(d)
        mean[0] = 1.2
        task = TwoGaussiansTask(mean, clip_features=True)
        return task.sample(n, random_state=seed)

    def test_beats_chance_at_generous_epsilon(self):
        x, y = self._data()
        clf = PrivateSGDClassifier(
            LogisticLoss(), 0.05, 8.0, batch_size=10
        ).fit(x, y, random_state=0)
        x_test, y_test = self._data(seed=99)
        assert clf.accuracy(x_test, y_test) > 0.7

    def test_fit_is_deterministic_given_seed(self):
        x, y = self._data(n=400)
        a = PrivateSGDClassifier(LogisticLoss(), 0.1, 1.0).fit(
            x, y, random_state=5
        )
        b = PrivateSGDClassifier(LogisticLoss(), 0.1, 1.0).fit(
            x, y, random_state=5
        )
        c = PrivateSGDClassifier(LogisticLoss(), 0.1, 1.0).fit(
            x, y, random_state=6
        )
        np.testing.assert_array_equal(a.coefficients, b.coefficients)
        assert not np.array_equal(a.coefficients, c.coefficients)

    def test_release_returns_fitted_coefficients(self):
        x, y = self._data(n=400)
        released = PrivateSGDClassifier(LogisticLoss(), 0.1, 1.0).release(
            (x, y), random_state=7
        )
        fitted = PrivateSGDClassifier(LogisticLoss(), 0.1, 1.0).fit(
            x, y, random_state=7
        )
        np.testing.assert_array_equal(released, fitted.coefficients)

    def test_coefficients_stay_in_projection_ball(self):
        x, y = self._data(n=400)
        regularization = 0.5
        clf = PrivateSGDClassifier(LogisticLoss(), regularization, 0.5).fit(
            x, y, random_state=1
        )
        assert np.linalg.norm(clf.coefficients) <= 1.0 / regularization + 1e-9

    def test_batched_path_differs_from_classical_but_both_fit(self):
        x, y = self._data(n=400)
        one = PrivateSGDClassifier(LogisticLoss(), 0.1, 2.0, batch_size=1).fit(
            x, y, random_state=2
        )
        many = PrivateSGDClassifier(
            LogisticLoss(), 0.1, 2.0, batch_size=40
        ).fit(x, y, random_state=2)
        assert one.coefficients.shape == many.coefficients.shape == (2,)

    def test_validation(self):
        with pytest.raises(ValidationError):
            PrivateSGDClassifier(object(), 0.1, 1.0)
        with pytest.raises(ValidationError):
            PrivateSGDClassifier(LogisticLoss(), 0.0, 1.0)
        with pytest.raises(ValidationError):
            PrivateSGDClassifier(LogisticLoss(), 0.1, 0.0)
        with pytest.raises(ValidationError):
            PrivateSGDClassifier(LogisticLoss(), 0.1, 1.0, batch_size=0)

    def test_rejects_unclipped_features(self):
        x = np.array([[2.0, 0.0], [0.0, 1.0]])
        y = np.array([1, -1])
        with pytest.raises(ValidationError):
            PrivateSGDClassifier(LogisticLoss(), 0.1, 1.0).fit(x, y)

    def test_predict_before_fit_rejected(self):
        clf = PrivateSGDClassifier(LogisticLoss(), 0.1, 1.0)
        with pytest.raises(ValidationError):
            clf.predict(np.zeros((1, 2)))
