"""Failure-injection tests: broken inputs must be *detected*, not absorbed.

Each test plants a specific defect — an understated sensitivity, a
miscalibrated temperature, an exhausted iteration budget — and asserts the
library surfaces it (a flagged audit, a raised exception, a ``converged``
flag), because silent acceptance of any of these would void the privacy
or correctness story.
"""

import asyncio

import numpy as np
import pytest

from repro.core import GibbsEstimator, GibbsPosterior
from repro.distributions import DiscreteDistribution
from repro.exceptions import (
    ConvergenceError,
    ServiceClosedError,
    ServingError,
    ServingTimeoutError,
    ValidationError,
)
from repro.learning import BernoulliTask, PredictorGrid, gradient_descent
from repro.mechanisms import ExponentialMechanism, Mechanism, PrivacySpec
from repro.observability import Tracer, tracing
from repro.privacy import ExactPrivacyAuditor
from repro.serving import (
    ReleaseService,
    ServiceConfig,
    SimulatedClock,
    TenantRegistry,
)
from repro.utils.validation import check_random_state


class TestUnderstatedSensitivity:
    def test_exponential_mechanism_flagged(self):
        """Declaring Δq = 0.2 when the true sensitivity is 1 makes the
        mechanism leak more than its claimed ε; the exact auditor must
        catch it."""
        mech = ExponentialMechanism(
            lambda d, u: float(sum(d) == u),  # true sensitivity 1
            outputs=range(4),
            sensitivity=0.2,  # lie
            epsilon=0.5,
        )
        report = ExactPrivacyAuditor(mech.output_distribution).audit(
            [0, 1], n=3, claimed_epsilon=mech.epsilon
        )
        assert not report.satisfied
        assert report.measured_epsilon > mech.epsilon

    def test_honest_sensitivity_passes(self):
        mech = ExponentialMechanism(
            lambda d, u: float(sum(d) == u),
            outputs=range(4),
            sensitivity=1.0,
            epsilon=0.5,
        )
        report = ExactPrivacyAuditor(mech.output_distribution).audit(
            [0, 1], n=3, claimed_epsilon=mech.epsilon
        )
        assert report.satisfied


class TestMiscalibratedTemperature:
    def test_overheated_gibbs_flagged(self):
        """Running the Gibbs posterior at 10× the calibrated temperature
        while still claiming the target ε must fail the audit."""
        task = BernoulliTask(p=0.7)
        grid = PredictorGrid.linspace(task.loss, 0.0, 1.0, 5)
        target_epsilon = 0.5
        n = 2
        honest = GibbsEstimator.from_privacy(grid, target_epsilon, n)
        overheated = GibbsPosterior(grid, honest.temperature * 10)
        report = ExactPrivacyAuditor(overheated.posterior).audit(
            [0, 1], n, claimed_epsilon=target_epsilon
        )
        assert not report.satisfied

    def test_wrong_sample_size_rejected_not_silently_leaking(self):
        """Feeding a smaller sample than the calibration assumed would
        silently weaken privacy; the estimator refuses instead."""
        task = BernoulliTask(p=0.7)
        grid = PredictorGrid.linspace(task.loss, 0.0, 1.0, 5)
        estimator = GibbsEstimator.from_privacy(grid, 1.0, 100)
        with pytest.raises(ValidationError, match="calibrated"):
            estimator.release([1] * 10, random_state=0)


class TestLossBoundViolations:
    def test_out_of_bounds_loss_detected_at_use(self):
        """A loss escaping its declared bounds breaks the sensitivity
        analysis; the grid validates every evaluation."""
        grid = PredictorGrid(
            [0.0, 1.0],
            lambda theta, z: 3.0 * abs(theta - z),  # range [0, 3], not [0, 1]
            loss_bounds=(0.0, 1.0),
        )
        with pytest.raises(ValidationError, match="bounds"):
            grid.empirical_risks([1])


class TestIterationBudgets:
    def test_gradient_descent_raises_when_asked(self):
        # Rosenbrock-like narrow valley; 2 iterations cannot converge.
        def objective(x):
            return float(100 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2)

        def gradient(x):
            return np.array(
                [
                    -400 * x[0] * (x[1] - x[0] ** 2) - 2 * (1 - x[0]),
                    200 * (x[1] - x[0] ** 2),
                ]
            )

        with pytest.raises(ConvergenceError):
            gradient_descent(
                objective,
                gradient,
                np.array([-1.5, 2.0]),
                max_iterations=2,
                tol=1e-12,
                raise_on_failure=True,
            )

    def test_rate_distortion_flag_and_raise(self):
        from repro.information import rate_distortion

        rng = np.random.default_rng(0)
        d = rng.uniform(size=(6, 6))
        starved = rate_distortion(
            np.full(6, 1 / 6), d, beta=1.0, max_iterations=1, tol=0.0
        )
        assert not starved.converged
        with pytest.raises(ConvergenceError):
            rate_distortion(
                np.full(6, 1 / 6),
                d,
                beta=1.0,
                max_iterations=1,
                tol=0.0,
                raise_on_failure=True,
            )


class TestAuditorInputValidation:
    def test_inconsistent_output_supports_rejected(self):
        """A mechanism whose output support depends on the data leaks
        through the support itself; the exact auditor refuses to compare."""

        def law(dataset):
            if sum(dataset) > 0:
                return DiscreteDistribution(["a", "b"], [0.5, 0.5])
            return DiscreteDistribution(["a", "c"], [0.5, 0.5])

        auditor = ExactPrivacyAuditor(law)
        with pytest.raises(ValidationError, match="support"):
            auditor.audit([0, 1], n=1)


class TestNumericalEdges:
    def test_gibbs_with_identical_risks_is_exactly_prior(self):
        """Constant risk: the tilt must cancel exactly, leaving the prior
        (a regression guard against drift in the log-domain path)."""
        grid = PredictorGrid([0.0, 0.5, 1.0], lambda t, z: np.full(len(z), 0.5))
        prior = DiscreteDistribution(grid.thetas, [0.2, 0.3, 0.5])
        gibbs = GibbsPosterior(grid, temperature=1e6, prior=prior)
        posterior = gibbs.posterior([1, 2, 3])
        assert posterior.probabilities == pytest.approx(
            prior.probabilities, abs=1e-10
        )

    def test_extreme_epsilon_calibration_finite(self):
        task = BernoulliTask(p=0.5)
        grid = PredictorGrid.linspace(task.loss, 0.0, 1.0, 3)
        estimator = GibbsEstimator.from_privacy(grid, 1e6, 10)
        dist = estimator.output_distribution([1] * 10)
        assert np.isfinite(dist.probabilities).all()
        assert dist.probabilities.sum() == pytest.approx(1.0)

    def test_tiny_epsilon_calibration_finite(self):
        task = BernoulliTask(p=0.5)
        grid = PredictorGrid.linspace(task.loss, 0.0, 1.0, 3)
        estimator = GibbsEstimator.from_privacy(grid, 1e-9, 10)
        dist = estimator.output_distribution([1] * 10)
        assert dist.entropy() == pytest.approx(np.log(3), abs=1e-6)


class FlakyMechanism(Mechanism):
    """Test double whose ``release`` raises on chosen draw indices.

    It deliberately does *not* override ``_release_many``, so batch
    flushes run the base fallback loop — the path where a mid-batch
    exception leaves earlier draws done and must still be accounted.
    """

    def __init__(self, fail_on=(), epsilon=0.5):
        super().__init__(PrivacySpec(epsilon))
        self.fail_on = set(fail_on)
        self.calls = 0

    def release(self, dataset, random_state=None):
        rng = check_random_state(random_state)
        self.calls += 1
        if self.calls in self.fail_on:
            raise RuntimeError("injected mid-batch failure")
        return float(rng.normal())


FLAKY_DATASET = [0.25, 0.75]


def flaky_service(clock, mechanism, *, budget=10.0, **config):
    """One-tenant service fronting an injected-fault mechanism."""
    registry = TenantRegistry()
    registry.register("alice", PrivacySpec(budget), seed=13)
    service = ReleaseService(
        registry, clock=clock, config=ServiceConfig(**config)
    )
    service.add_mechanism("flaky", mechanism)
    return service


class TestServingFaultInjection:
    """The serving front door under injected faults.

    Reservation semantics under test: a charge rolls back exactly when
    the release provably did not happen (failed batch, queued timeout,
    abort), every rollback leaves a refund event on the ledger, and the
    failure itself surfaces as a raised error — never a silent drop.
    """

    def test_mid_batch_exception_refunds_and_fails_loud(self):
        """A flush that dies mid-loop must refund every rider, fail every
        future with ServingError, and still ledger the draw that
        completed before the fault (the mechanism ran — once)."""
        clock = SimulatedClock()
        mechanism = FlakyMechanism(fail_on={2})
        service = flaky_service(clock, mechanism, flush_window=0.01)
        tracer = Tracer("fault-mid-batch")

        async def main():
            return await asyncio.gather(
                *(
                    service.submit("alice", "flaky", FLAKY_DATASET)
                    for _ in range(3)
                ),
                return_exceptions=True,
            )

        with tracing(tracer):
            results = clock.run(main())
        assert all(isinstance(r, ServingError) for r in results)
        assert all("batch flush failed" in str(r) for r in results)
        accountant = service.registry.get("alice").accountant
        assert accountant.spent_epsilon == 0.0
        refunds = [e for e in tracer.events if e.kind == "refund"]
        assert len(refunds) == 3
        assert tracer.metrics.counter("serving.batch_failures") == 3
        # The draw before the injected fault really happened; the partial
        # aggregated release event keeps the mechanism ledger honest.
        releases = [e for e in tracer.events if e.kind == "release"]
        assert sum(e.count for e in releases) == 1

    def test_retry_recovers_with_a_reseeded_generator(self):
        """With retry budget, the second attempt draws from a re-derived
        generator, succeeds, and the reservation stands — no refunds."""
        clock = SimulatedClock()
        mechanism = FlakyMechanism(fail_on={2})
        service = flaky_service(
            clock, mechanism, flush_window=0.01, max_retries=1
        )
        tracer = Tracer("fault-retry")

        async def main():
            return await asyncio.gather(
                *(
                    service.submit("alice", "flaky", FLAKY_DATASET)
                    for _ in range(3)
                )
            )

        with tracing(tracer):
            results = clock.run(main())
        assert [len(piece) for piece in results] == [1, 1, 1]
        assert tracer.metrics.counter("serving.retries") == 1
        assert tracer.metrics.counter("serving.batch_failures") == 0
        accountant = service.registry.get("alice").accountant
        assert accountant.spent_epsilon == pytest.approx(3 * 0.5)
        assert not [e for e in tracer.events if e.kind == "refund"]

    def test_exhausted_retries_still_roll_back(self):
        """A mechanism that fails every attempt exhausts the retry budget
        and the rollback contract holds exactly as with no retries."""
        clock = SimulatedClock()
        # Fails on every call: attempt 0 and both retries.
        mechanism = FlakyMechanism(fail_on=set(range(1, 100)))
        service = flaky_service(
            clock, mechanism, flush_window=0.01, max_retries=2
        )
        tracer = Tracer("fault-exhausted")

        async def main():
            with pytest.raises(ServingError, match="after 3 attempt"):
                await service.submit("alice", "flaky", FLAKY_DATASET)

        with tracing(tracer):
            clock.run(main())
        assert tracer.metrics.counter("serving.retries") == 2
        assert service.registry.get("alice").accountant.spent_epsilon == 0.0
        assert len([e for e in tracer.events if e.kind == "refund"]) == 1

    def test_timeout_while_queued_refunds_the_reservation(self):
        """A request whose timeout fires before its window flushes was
        provably never released: refund, refusal-grade ledger trail, and
        the mechanism must never have run."""
        clock = SimulatedClock()
        mechanism = FlakyMechanism()
        service = flaky_service(
            clock, mechanism, flush_window=0.5, request_timeout=0.01
        )
        tracer = Tracer("fault-timeout")

        async def main():
            with pytest.raises(ServingTimeoutError):
                await service.submit("alice", "flaky", FLAKY_DATASET)
            return clock.now()

        with tracing(tracer):
            elapsed = clock.run(main())
        assert elapsed == pytest.approx(0.01)
        assert mechanism.calls == 0
        assert service.registry.get("alice").accountant.spent_epsilon == 0.0
        assert tracer.metrics.counter("serving.timeouts") == 1
        assert len([e for e in tracer.events if e.kind == "refund"]) == 1

    def test_abort_during_flush_window_refunds_queued_requests(self):
        """Shutdown racing an open window: abort() must refund the queued
        reservation and fail the rider with ServiceClosedError before
        any release happens."""
        clock = SimulatedClock()
        mechanism = FlakyMechanism()
        service = flaky_service(clock, mechanism, flush_window=10.0)
        tracer = Tracer("fault-abort")

        async def main():
            pending = asyncio.ensure_future(
                service.submit("alice", "flaky", FLAKY_DATASET)
            )
            await asyncio.sleep(0)  # let the submit reserve and enqueue
            await service.abort()
            with pytest.raises(ServiceClosedError):
                await pending
            return clock.now()

        with tracing(tracer):
            elapsed = clock.run(main())
        assert elapsed == 0.0
        assert mechanism.calls == 0
        assert service.registry.get("alice").accountant.spent_epsilon == 0.0
        assert tracer.metrics.counter("serving.aborted") == 1
        assert len([e for e in tracer.events if e.kind == "refund"]) == 1
