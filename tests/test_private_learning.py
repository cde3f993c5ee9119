"""Unit tests for the private learners (Chaudhuri baselines + Gibbs)."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.learning import (
    HuberHingeLoss,
    LogisticLoss,
    LogisticRegressionModel,
    TwoGaussiansTask,
    ZeroOneLoss,
)
from repro.private_learning import (
    ExponentialMechanismLearner,
    ObjectivePerturbationClassifier,
    OutputPerturbationClassifier,
    direction_grid,
    erm_argmin_sensitivity,
)


@pytest.fixture
def data():
    task = TwoGaussiansTask([2.0, 0.0], clip_features=True)
    return task, task.sample(500, random_state=0)


class TestArgminSensitivity:
    def test_closed_form(self):
        assert erm_argmin_sensitivity(1.0, 0.1, 100) == pytest.approx(0.2)

    def test_empirical_never_exceeds_closed_form(self, data):
        """Refit on neighbouring datasets; the argmin displacement must stay
        within 2L/(nΛ)."""
        _, (x, y) = data
        lam = 0.5
        base = LogisticRegressionModel(regularization=lam).fit(x, y)
        bound = erm_argmin_sensitivity(1.0, lam, len(y))
        rng = np.random.default_rng(1)
        for _ in range(5):
            i = int(rng.integers(len(y)))
            x2, y2 = x.copy(), y.copy()
            x2[i] = rng.normal(size=2)
            x2[i] /= max(np.linalg.norm(x2[i]), 1.0)
            y2[i] = -y2[i]
            neighbour = LogisticRegressionModel(regularization=lam).fit(x2, y2)
            gap = np.linalg.norm(base.coefficients - neighbour.coefficients)
            assert gap <= bound + 1e-9

    def test_rejects_vanishing_regularization(self):
        """Λ → 0 loses strong convexity: 2L/(nΛ) overflows to inf, which
        would calibrate vacuous (infinite-scale) noise downstream."""
        with pytest.raises(ValidationError, match="strongly convex"):
            erm_argmin_sensitivity(1.0, 1e-320, 100)

    def test_rejects_infinite_lipschitz(self):
        with pytest.raises(ValidationError, match="finite"):
            erm_argmin_sensitivity(np.inf, 0.1, 100)

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValidationError):
            erm_argmin_sensitivity(1.0, 0.0, 100)
        with pytest.raises(ValidationError):
            erm_argmin_sensitivity(-1.0, 0.1, 100)
        with pytest.raises(ValidationError):
            erm_argmin_sensitivity(1.0, 0.1, 0)


class TestOutputPerturbation:
    def test_accuracy_reasonable_at_large_epsilon(self, data):
        task, (x, y) = data
        clf = OutputPerturbationClassifier(
            LogisticLoss(), regularization=0.01, epsilon=50.0
        ).fit(x, y, random_state=2)
        assert clf.accuracy(x, y) > 0.85

    def test_noise_dominates_at_tiny_epsilon(self, data):
        """At ε → 0 the released vector is essentially noise."""
        task, (x, y) = data
        nonprivate = LogisticRegressionModel(regularization=0.01).fit(x, y)
        gaps = []
        for seed in range(5):
            clf = OutputPerturbationClassifier(
                LogisticLoss(), regularization=0.01, epsilon=0.001
            ).fit(x, y, random_state=seed)
            gaps.append(
                np.linalg.norm(clf.coefficients - nonprivate.coefficients)
            )
        assert min(gaps) > np.linalg.norm(nonprivate.coefficients)

    def test_rejects_unclipped_features(self):
        x = np.array([[3.0, 0.0], [0.0, 1.0]])
        y = np.array([1, -1])
        clf = OutputPerturbationClassifier(LogisticLoss(), 0.1, epsilon=1.0)
        with pytest.raises(ValidationError):
            clf.fit(x, y, random_state=0)

    def test_rejects_non_lipschitz_loss(self):
        with pytest.raises(ValidationError):
            OutputPerturbationClassifier(ZeroOneLoss(), 0.1, epsilon=1.0)

    def test_release_interface(self, data):
        _, (x, y) = data
        clf = OutputPerturbationClassifier(LogisticLoss(), 0.1, epsilon=1.0)
        theta = clf.release((x, y), random_state=3)
        assert theta.shape == (2,)

    def test_predict_before_fit_raises(self):
        clf = OutputPerturbationClassifier(LogisticLoss(), 0.1, epsilon=1.0)
        with pytest.raises(ValidationError):
            clf.predict(np.zeros((1, 2)))


@pytest.mark.parametrize(
    "classifier",
    [OutputPerturbationClassifier, ObjectivePerturbationClassifier],
    ids=["output", "objective"],
)
def test_same_seed_same_coefficients(classifier, data):
    """Every noise draw of a fit comes from the injected seed: two fits with
    one seed release the identical vector."""
    _, (x, y) = data
    first, second = (
        classifier(LogisticLoss(), 0.1, epsilon=1.0)
        .fit(x, y, random_state=9)
        .coefficients
        for _ in range(2)
    )
    np.testing.assert_array_equal(first, second)


class TestObjectivePerturbation:
    def test_accuracy_reasonable_at_large_epsilon(self, data):
        task, (x, y) = data
        clf = ObjectivePerturbationClassifier(
            LogisticLoss(), regularization=0.01, epsilon=50.0
        ).fit(x, y, random_state=4)
        assert clf.accuracy(x, y) > 0.85

    def test_works_with_huber_hinge(self, data):
        _, (x, y) = data
        clf = ObjectivePerturbationClassifier(
            HuberHingeLoss(smoothing=0.5), regularization=0.05, epsilon=5.0
        ).fit(x, y, random_state=5)
        assert clf.coefficients.shape == (2,)

    def test_rejects_hinge_without_smoothing(self):
        from repro.learning import HingeLoss

        with pytest.raises(ValidationError):
            ObjectivePerturbationClassifier(HingeLoss(), 0.1, epsilon=1.0)

    def test_small_epsilon_triggers_regularization_topup(self, data):
        _, (x, y) = data
        clf = ObjectivePerturbationClassifier(
            LogisticLoss(), regularization=1e-6, epsilon=0.01
        ).fit(x, y, random_state=6)
        assert clf.effective_regularization > 1e-6

    def test_large_epsilon_no_topup(self, data):
        _, (x, y) = data
        clf = ObjectivePerturbationClassifier(
            LogisticLoss(), regularization=0.1, epsilon=10.0
        ).fit(x, y, random_state=7)
        assert clf.effective_regularization == pytest.approx(0.1)

    def test_beats_output_perturbation_at_moderate_epsilon(self, data):
        """The headline comparison of Chaudhuri et al. — objective
        perturbation wins at moderate ε (averaged over seeds)."""
        task, (x, y) = data
        x_test, y_test = task.sample(2_000, random_state=100)
        epsilon, lam = 0.5, 0.01
        obj_acc, out_acc = [], []
        for seed in range(15):
            obj = ObjectivePerturbationClassifier(
                LogisticLoss(), lam, epsilon
            ).fit(x, y, random_state=seed)
            out = OutputPerturbationClassifier(
                LogisticLoss(), lam, epsilon
            ).fit(x, y, random_state=seed)
            obj_acc.append(obj.accuracy(x_test, y_test))
            out_acc.append(out.accuracy(x_test, y_test))
        assert np.mean(obj_acc) > np.mean(out_acc)


class TestDirectionGrid:
    def test_2d_unit_circle(self):
        grid = direction_grid(2, 8)
        assert len(grid) == 8
        for theta in grid:
            assert np.linalg.norm(theta) == pytest.approx(1.0)

    def test_high_dimension_unit_norm(self):
        grid = direction_grid(5, 16)
        assert len(grid) == 16
        for theta in grid:
            assert np.linalg.norm(theta) == pytest.approx(1.0)

    def test_deterministic(self):
        a = direction_grid(4, 10)
        b = direction_grid(4, 10)
        assert all(np.array_equal(u, v) for u, v in zip(a, b))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            direction_grid(1, 8)
        with pytest.raises(ValidationError):
            direction_grid(2, 1)

    def test_2d_directions_all_distinct(self):
        grid = direction_grid(2, 64)
        assert len({tuple(theta) for theta in grid}) == 64

    def test_degenerate_zero_rows_are_skipped(self):
        """A zero Gaussian row has no direction (0/0 → NaN); the grid must
        skip it and keep drawing rather than emit a NaN predictor."""

        class ZeroThenNormal(np.random.Generator):
            def __init__(self):
                super().__init__(np.random.PCG64(4))
                self._calls = 0

            def normal(self, *args, **kwargs):
                self._calls += 1
                if self._calls <= 2:
                    return np.zeros(kwargs.get("size", args[-1] if args else None))
                return super().normal(*args, **kwargs)

        grid = direction_grid(3, 5, random_state=ZeroThenNormal())
        assert len(grid) == 5
        for theta in grid:
            assert np.all(np.isfinite(theta))
            assert np.linalg.norm(theta) == pytest.approx(1.0)

    def test_duplicate_rows_are_deduplicated(self):
        """Repeated rows would silently double a predictor's prior mass;
        the grid must hold distinct directions."""

        class RepeatFirstRow(np.random.Generator):
            def __init__(self):
                super().__init__(np.random.PCG64(4))
                self._row = None
                self._calls = 0

            def normal(self, *args, **kwargs):
                self._calls += 1
                if self._calls == 1:
                    self._row = super().normal(*args, **kwargs)
                    return self._row
                if self._calls <= 3:
                    return self._row.copy()
                return super().normal(*args, **kwargs)

        grid = direction_grid(4, 6, random_state=RepeatFirstRow())
        assert len(grid) == 6
        assert len({tuple(theta) for theta in grid}) == 6

    def test_exhausted_degenerate_generator_raises(self):
        class AlwaysZero(np.random.Generator):
            def __init__(self):
                super().__init__(np.random.PCG64(0))

            def normal(self, *args, **kwargs):
                return np.zeros(kwargs.get("size", args[-1] if args else None))

        with pytest.raises(ValidationError, match="distinct unit directions"):
            direction_grid(3, 4, random_state=AlwaysZero())

    def test_healthy_generator_grid_unchanged(self):
        """The degeneracy guards must not perturb grids from real RNGs:
        same rows, in order, as the raw bulk-draw construction (up to the
        1-ulp wiggle of per-row vs axis-reduced norms)."""
        rng = np.random.default_rng(12345)
        raw = rng.normal(size=(16, 5))
        raw /= np.linalg.norm(raw, axis=1, keepdims=True)
        grid = direction_grid(5, 16, random_state=12345)
        assert np.allclose(np.stack(grid), raw, rtol=0.0, atol=1e-14)


class TestExponentialMechanismLearner:
    def test_temperature_calibration(self):
        learner = ExponentialMechanismLearner(
            2, epsilon=1.0, sample_size=200, resolution=16
        )
        assert learner.temperature == pytest.approx(100.0)
        assert learner.epsilon == pytest.approx(1.0)

    def test_learns_at_large_epsilon(self, data):
        task, (x, y) = data
        learner = ExponentialMechanismLearner(
            2, epsilon=50.0, sample_size=len(y), resolution=32
        ).fit(x, y, random_state=8)
        assert learner.accuracy(x, y) > 0.85

    def test_fit_is_one_release_of_the_seed(self, data):
        """fit spends exactly one release: the estimator's own release on
        the same seed. An extra, discarded release would advance the stream;
        the posterior is near-flat here, so over five seeds the next draw
        lands elsewhere at least once."""
        _, (x, y) = data
        learner = ExponentialMechanismLearner(
            2, epsilon=1e-3, sample_size=len(y), resolution=64
        )
        sample = ExponentialMechanismLearner._as_sample(x, y)
        for seed in range(5):
            fitted = learner.fit(x, y, random_state=seed).coefficients
            expected = learner.estimator.release(sample, random_state=seed)
            np.testing.assert_array_equal(
                fitted, np.asarray(expected, dtype=float)
            )

    def test_posterior_flat_at_tiny_epsilon(self, data):
        _, (x, y) = data
        learner = ExponentialMechanismLearner(
            2, epsilon=1e-4, sample_size=len(y), resolution=16
        )
        dist = learner.output_distribution(x, y)
        assert dist.entropy() == pytest.approx(np.log(16), abs=1e-3)

    def test_posterior_concentrates_at_large_epsilon(self, data):
        _, (x, y) = data
        learner = ExponentialMechanismLearner(
            2, epsilon=100.0, sample_size=len(y), resolution=16
        )
        dist = learner.output_distribution(x, y)
        assert dist.probability_of(dist.mode()) > 0.9

    def test_exact_privacy_audit_on_tiny_instance(self):
        """End-to-end Theorem 4.1 on the learner itself: exact audit over a
        4-point data universe."""
        from repro.privacy import ExactPrivacyAuditor

        learner = ExponentialMechanismLearner(
            2, epsilon=1.0, sample_size=2, resolution=8
        )
        universe = [
            (1.0, 0.0, 1),
            (-1.0, 0.0, -1),
            (0.0, 1.0, 1),
            (0.0, -1.0, -1),
        ]
        auditor = ExactPrivacyAuditor(learner.estimator.output_distribution)
        report = auditor.audit(universe, n=2, claimed_epsilon=1.0)
        assert report.satisfied
