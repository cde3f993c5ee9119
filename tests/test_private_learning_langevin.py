"""Tests for the regularized exponential mechanism (batched MALA ERM).

Covers the `release_many` stream-equivalence contract for the Langevin
mechanism specifically (batch ≡ sequential bit-for-bit across blocks of
chains, tracing on/off identity, aggregated ledger ``count``), the memory
bound the blocks buy, the classifier surface that makes
it a drop-in peer of the perturbation baselines, the Theorem 4.1
temperature calibration, and the audit-registry sabotage teeth.
"""

import tracemalloc

import numpy as np
import pytest

from repro.distributions import sampling
from repro.exceptions import DPAuditError, ValidationError
from repro.learning import LogisticLoss, TwoGaussiansTask
from repro.learning.losses import HingeLoss, TruncatedLoss
from repro.observability import ledger_totals, tracing
from repro.private_learning import (
    GibbsERMClassifier,
    ObjectivePerturbationClassifier,
    OutputPerturbationClassifier,
    RegularizedExponentialMechanism,
)
from repro.testing import assert_dp, build_audit


def _loss():
    return TruncatedLoss(LogisticLoss(), ceiling=2.0)


@pytest.fixture
def dataset():
    task = TwoGaussiansTask([1.38, 0.58], clip_features=True)
    x, y = task.sample(120, random_state=0)
    return (x, y)


def _mechanism(epsilon=1.0, steps=40):
    return RegularizedExponentialMechanism(_loss(), 0.1, epsilon, steps=steps)


class TestReleaseManyContract:
    def test_batch_equals_sequential_releases(self, dataset):
        mechanism = _mechanism()
        batch = mechanism.release_many(dataset, 6, np.random.default_rng(99))
        rng = np.random.default_rng(99)
        serial = np.stack(
            [mechanism.release(dataset, rng) for _ in range(6)]
        )
        assert np.array_equal(np.asarray(batch), serial)

    def test_single_draw_matches_release(self, dataset):
        mechanism = _mechanism()
        batch = mechanism.release_many(dataset, 1, np.random.default_rng(5))
        single = mechanism.release(dataset, np.random.default_rng(5))
        assert np.array_equal(np.asarray(batch)[0], single)

    def test_tracing_leaves_batch_bit_identical(self, dataset):
        mechanism = _mechanism()
        untraced = mechanism.release_many(dataset, 4, np.random.default_rng(7))
        with tracing() as tracer:
            traced = mechanism.release_many(
                dataset, 4, np.random.default_rng(7)
            )
        assert np.array_equal(np.asarray(untraced), np.asarray(traced))
        (event,) = tracer.events
        assert event.count == 4
        assert event.epsilon == mechanism.epsilon
        assert tracer.metrics.counter("mechanism.releases") == 4

    def test_ledger_totals_match_serial(self, dataset):
        mechanism = _mechanism()
        with tracing() as batch_tracer:
            mechanism.release_many(dataset, 3, np.random.default_rng(1))
        with tracing() as serial_tracer:
            rng = np.random.default_rng(1)
            for _ in range(3):
                mechanism.release(dataset, rng)
        assert len(batch_tracer.events) == 1
        assert len(serial_tracer.events) == 3
        assert ledger_totals(
            batch_tracer.events, kinds=("release",)
        ) == ledger_totals(serial_tracer.events, kinds=("release",))

    def test_blocks_equal_sequential_releases(self, dataset, monkeypatch):
        """``2·block + 3`` chains: samples, log-densities and acceptance
        rate equal one-chain runs on a shared generator, bit for bit."""
        mechanism = _mechanism()
        block, n = 4, 2 * 4 + 3
        monkeypatch.setattr(
            sampling, "BLOCK_BYTES", block * 8 * mechanism.steps * (2 + 1)
        )
        batch = mechanism.release_many(dataset, n, np.random.default_rng(31))
        rng = np.random.default_rng(31)
        serial = np.stack([mechanism.release(dataset, rng) for _ in range(n)])
        assert np.array_equal(np.asarray(batch), serial)

        result = mechanism._sample_posterior(
            dataset, n, np.random.default_rng(31)
        )
        rng = np.random.default_rng(31)
        singles = [
            mechanism._sample_posterior(dataset, 1, rng) for _ in range(n)
        ]
        assert np.array_equal(result.samples, serial)
        assert np.array_equal(
            result.log_densities,
            np.concatenate([single.log_densities for single in singles]),
        )
        accepted = sum(
            round(single.acceptance_rate * mechanism.steps)
            for single in singles
        )
        assert result.acceptance_rate == accepted / (n * mechanism.steps)

    def test_batch_shape_and_finiteness(self, dataset):
        samples = np.asarray(
            _mechanism().release_many(dataset, 9, np.random.default_rng(2))
        )
        assert samples.shape == (9, 2)
        assert np.all(np.isfinite(samples))


class TestMemory:
    def test_audit_batch_holds_one_block_of_draws(self):
        """12 000 chains of the ``langevin`` audit draw 34.6 MB of normals
        and uniforms in all; run in blocks, the batch's traced peak stays
        near one block's 8 MiB."""
        prepared = build_audit("langevin")
        tracemalloc.start()
        try:
            prepared.mechanism.release_many(
                prepared.pair.a, 12_000, random_state=0
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


class TestCalibrationAndValidation:
    def test_temperature_is_theorem_41(self):
        mechanism = _mechanism(epsilon=2.0)
        # λ = ε·n/(2C) with loss range C = 2.0.
        assert mechanism.temperature_for(100) == pytest.approx(
            2.0 * 100 / (2.0 * 2.0)
        )

    def test_rejects_unbounded_loss(self):
        with pytest.raises(ValidationError, match="bounded"):
            RegularizedExponentialMechanism(LogisticLoss(), 0.1, 1.0)

    def test_rejects_oversized_features(self):
        mechanism = _mechanism()
        x = np.array([[3.0, 0.0], [0.0, 1.0]])
        y = np.array([1, -1])
        with pytest.raises(ValidationError, match="‖x‖₂ ≤ 1"):
            mechanism.release((x, y), np.random.default_rng(0))

    def test_rejects_bad_constructor_arguments(self):
        with pytest.raises(ValidationError):
            RegularizedExponentialMechanism(_loss(), 0.0, 1.0)
        with pytest.raises(ValidationError):
            RegularizedExponentialMechanism(_loss(), 0.1, 1.0, steps=0)
        with pytest.raises(ValidationError):
            RegularizedExponentialMechanism(_loss(), 0.1, 1.0, step_size=0.0)

    def test_nonsmooth_bounded_loss_accepted(self, dataset):
        mechanism = RegularizedExponentialMechanism(
            TruncatedLoss(HingeLoss(), ceiling=2.0), 0.1, 1.0, steps=30
        )
        theta = mechanism.release(dataset, np.random.default_rng(3))
        assert np.all(np.isfinite(theta))

    def test_acceptance_rate_in_healthy_band(self, dataset):
        mechanism = _mechanism(steps=80)
        mechanism.release_many(dataset, 32, np.random.default_rng(4))
        assert 0.3 < mechanism.last_acceptance_rate < 0.95


class TestGibbsERMClassifier:
    def test_drop_in_constructor_and_surface(self, dataset):
        """Same (loss, regularization, epsilon) signature and fitted
        surface as the perturbation baselines."""
        x, y = dataset
        classifiers = [
            GibbsERMClassifier(_loss(), 0.1, 2.0),
            OutputPerturbationClassifier(LogisticLoss(), 0.1, 2.0),
            ObjectivePerturbationClassifier(LogisticLoss(), 0.1, 2.0),
        ]
        for classifier in classifiers:
            fitted = classifier.fit(x, y, random_state=11)
            assert fitted is classifier
            assert classifier.coefficients.shape == (2,)
            assert classifier.predict(x).shape == y.shape
            assert 0.0 <= classifier.accuracy(x, y) <= 1.0

    def test_predict_before_fit_raises(self):
        with pytest.raises(ValidationError, match="not been fitted"):
            GibbsERMClassifier(_loss(), 0.1, 1.0).predict([[0.5, 0.5]])

    def test_accuracy_improves_with_epsilon(self, dataset):
        """The privacy/utility trade-off: more budget, better fit."""
        x, y = dataset

        def mean_accuracy(epsilon):
            scores = [
                GibbsERMClassifier(_loss(), 0.05, epsilon, steps=80)
                .fit(x, y, random_state=seed)
                .accuracy(x, y)
                for seed in range(5)
            ]
            return float(np.mean(scores))

        assert mean_accuracy(20.0) > mean_accuracy(0.01) + 0.1

    def test_competitive_with_baselines_at_small_epsilon(self):
        """At small ε in d = 16 the posterior mean pull of the sampled
        mechanism should at least match output perturbation's accuracy."""
        mean = np.zeros(16)
        mean[0], mean[1] = 1.38, 0.58
        task = TwoGaussiansTask(mean, clip_features=True)
        x, y = task.sample(800, random_state=7)
        gibbs = np.mean(
            [
                GibbsERMClassifier(_loss(), 0.05, 0.1)
                .fit(x, y, random_state=seed)
                .accuracy(x, y)
                for seed in range(3)
            ]
        )
        output = np.mean(
            [
                OutputPerturbationClassifier(LogisticLoss(), 0.05, 0.1)
                .fit(x, y, random_state=seed)
                .accuracy(x, y)
                for seed in range(3)
            ]
        )
        assert gibbs >= output - 0.02


class TestAuditRegistryTeeth:
    @pytest.mark.statistical
    def test_inflated_temperature_fails_audit(self):
        prepared = build_audit("langevin", epsilon=1.0, n=3, noise_scale=0.2)
        with pytest.raises(DPAuditError):
            assert_dp(
                prepared.mechanism,
                prepared.pair,
                epsilon=1.0,
                name=prepared.name,
                kind=prepared.kind,
                output_key=prepared.output_key,
                n_samples=8_000,
            )
