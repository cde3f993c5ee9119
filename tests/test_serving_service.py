"""Serving front-door tests: clocks, tenants, batching, robustness.

The deterministic backbone is :class:`SimulatedClock`: every test drives
its coroutines on a virtual timeline, so timing-dependent behaviour
(flush windows, timeouts, drain ordering) is exact and replayable, never
sleep-and-hope.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.exceptions import (
    PrivacyBudgetError,
    ServiceClosedError,
    ServingError,
    ServingTimeoutError,
    ValidationError,
)
from repro.mechanisms import GaussianMechanism, LaplaceMechanism, PrivacySpec
from repro.observability import Tracer, ledger_totals, tracing
from repro.serving import (
    ReleaseService,
    ServiceConfig,
    SimulatedClock,
    SystemClock,
    TenantRegistry,
)
from repro.testing.statistical import derive_seed
from repro.utils.validation import check_random_state

DATASET = [0.1, 0.4, 0.7]


def make_service(
    clock,
    *,
    budget=PrivacySpec(100.0),
    seed=11,
    tenants=("alice",),
    epsilon=0.5,
    **config,
):
    """A registry + service + Laplace mechanism wired for one test."""
    registry = TenantRegistry()
    for tenant_id in tenants:
        registry.register(tenant_id, budget, seed=seed)
    service = ReleaseService(
        registry, clock=clock, config=ServiceConfig(**config)
    )
    service.add_mechanism(
        "sum", LaplaceMechanism(lambda d: float(np.sum(d)), 1.0, epsilon)
    )
    return service


def tenant_stream(tenant_id, seed):
    """The generator a tenant's releases draw from, re-derived."""
    return check_random_state(
        derive_seed("tenant", tenant_id, base_seed=seed)
    )


class TestSimulatedClock:
    def test_sleep_orders_by_deadline_then_registration(self):
        clock = SimulatedClock()
        wakes = []

        async def sleeper(name, seconds):
            await clock.sleep(seconds)
            wakes.append((name, clock.now()))

        async def main():
            await asyncio.gather(
                sleeper("slow", 3.0), sleeper("fast", 1.0),
                sleeper("tie-a", 2.0), sleeper("tie-b", 2.0),
            )

        clock.run(main())
        assert wakes == [
            ("fast", 1.0), ("tie-a", 2.0), ("tie-b", 2.0), ("slow", 3.0)
        ]

    def test_runs_in_virtual_time_not_wall_time(self):
        clock = SimulatedClock()

        async def main():
            await clock.sleep(3600.0)
            return clock.now()

        assert clock.run(main()) == 3600.0

    def test_wait_for_times_out_on_the_virtual_timeline(self):
        clock = SimulatedClock()

        async def main():
            never = asyncio.get_running_loop().create_future()
            with pytest.raises(ServingTimeoutError):
                await clock.wait_for(never, 2.5)
            return clock.now()

        assert clock.run(main()) == 2.5

    def test_wait_for_returns_early_result(self):
        clock = SimulatedClock()

        async def main():
            future = asyncio.get_running_loop().create_future()

            async def resolver():
                await clock.sleep(1.0)
                future.set_result("done")

            task = asyncio.ensure_future(resolver())
            result = await clock.wait_for(future, 10.0)
            await task
            return result, clock.now()

        assert clock.run(main()) == ("done", 1.0)

    def test_deadlock_is_detected_not_hung(self):
        clock = SimulatedClock()

        async def main():
            await asyncio.get_running_loop().create_future()

        with pytest.raises(ServingError, match="deadlock"):
            clock.run(main())

    def test_rejected_nan_sleep_leaves_the_heap_ordered(self):
        clock = SimulatedClock()
        wakes = []

        async def sleeper(name, seconds):
            try:
                await clock.sleep(seconds)
            except ValidationError:
                wakes.append((name, "rejected"))
                return
            wakes.append((name, clock.now()))

        async def main():
            await asyncio.gather(
                sleeper("a", 1.0), sleeper("nan", float("nan")),
                sleeper("b", 0.5), sleeper("c", 2.0),
            )

        clock.run(main())
        assert wakes == [
            ("nan", "rejected"), ("b", 0.5), ("a", 1.0), ("c", 2.0)
        ]

    def test_timed_out_future_is_left_pending(self):
        clock = SimulatedClock()

        async def main():
            future = asyncio.get_running_loop().create_future()
            with pytest.raises(ServingTimeoutError):
                await clock.wait_for(future, 1.0)
            assert not future.done()
            future.set_result("late")
            await asyncio.sleep(0)
            return await clock.wait_for(future, 1.0), clock.now()

        assert clock.run(main()) == ("late", 1.0)

    def test_leftover_tasks_are_cancelled_without_advancing(self):
        clock = SimulatedClock()
        cancelled = []

        async def straggler():
            try:
                await clock.sleep(5.0)
            except asyncio.CancelledError:
                cancelled.append(clock.now())
                raise

        async def main():
            asyncio.ensure_future(straggler())
            await clock.sleep(1.0)
            return clock.now()

        assert clock.run(main()) == 1.0
        assert cancelled == [1.0]
        assert clock.now() == 1.0

    def test_run_inside_a_running_loop_is_refused(self):
        clock = SimulatedClock()

        async def inner():
            return None

        async def outer():
            coroutine = inner()
            try:
                with pytest.raises(RuntimeError, match="running event loop"):
                    clock.run(coroutine)
            finally:
                coroutine.close()

        asyncio.run(outer())


@pytest.mark.parametrize("clock_cls", [SimulatedClock, SystemClock])
def test_nan_delay_is_rejected_by_both_clocks(clock_cls):
    """A NaN delay has no place on a timeline: ``sleep`` and ``wait_for``
    raise before registering anything, and the clock keeps working."""
    clock = clock_cls()

    async def main():
        future = asyncio.get_running_loop().create_future()
        with pytest.raises(ValidationError, match="sleep delay must not be NaN"):
            await clock.sleep(float("nan"))
        with pytest.raises(ValidationError, match="timeout must not be NaN"):
            await clock.wait_for(future, float("nan"))
        future.set_result("done")
        return await clock.wait_for(future, 1.0)

    run = clock.run if isinstance(clock, SimulatedClock) else asyncio.run
    assert run(main()) == "done"


class TestTenantAccountant:
    def test_refund_restores_capacity(self):
        accountant = TenantRegistry().register("a", PrivacySpec(1.0)).accountant
        assert accountant.try_charge(PrivacySpec(1.0), label="r")
        accountant.refund(PrivacySpec(1.0), label="r")
        assert accountant.spent_epsilon == 0.0
        assert accountant.try_charge(PrivacySpec(1.0), label="r")

    def test_refund_without_charge_raises(self):
        accountant = TenantRegistry().register("a", PrivacySpec(1.0)).accountant
        with pytest.raises(ValidationError, match="refund"):
            accountant.refund(PrivacySpec(0.5))


class TestTenantRegistry:
    def test_duplicate_registration_rejected(self):
        registry = TenantRegistry()
        registry.register("a", PrivacySpec(1.0))
        with pytest.raises(ValidationError, match="already registered"):
            registry.register("a", PrivacySpec(1.0))

    def test_unknown_tenant_rejected(self):
        with pytest.raises(ValidationError, match="unknown tenant"):
            TenantRegistry().get("ghost")

    def test_tenant_stream_is_deterministic(self):
        first = TenantRegistry().register("a", PrivacySpec(1.0), seed=3)
        second = TenantRegistry().register("a", PrivacySpec(1.0), seed=3)
        assert first.rng.standard_normal() == second.rng.standard_normal()


class TestBatching:
    def test_concurrent_requests_coalesce_into_one_flush(self):
        clock = SimulatedClock()
        service = make_service(clock, flush_window=0.05)
        tracer = Tracer("coalesce")

        async def main():
            return await asyncio.gather(
                *(service.submit("alice", "sum", DATASET, n=1) for _ in range(6))
            )

        with tracing(tracer):
            results = clock.run(main())
        assert tracer.metrics.counter("serving.flushes") == 1
        assert tracer.metrics.counter("serving.released") == 6
        assert all(len(piece) == 1 for piece in results)

    def test_batched_outputs_bit_identical_to_sequential(self):
        """The coalesced flush must be stream-equivalent to serving the
        same requests one by one from the tenant's generator."""
        seed = 29
        requests = [1, 2, 3, 1]

        def serve_all(batching):
            clock = SimulatedClock()
            service = make_service(
                clock, seed=seed, flush_window=0.05, batching=batching
            )

            async def main():
                results = await asyncio.gather(
                    *(
                        service.submit("alice", "sum", DATASET, n=n)
                        for n in requests
                    )
                )
                await service.drain()
                return [value for piece in results for value in piece]

            return clock.run(main())

        batched = serve_all(batching=True)
        sequential = serve_all(batching=False)
        assert batched == sequential
        # And both equal one direct release_many on the tenant stream.
        mechanism = LaplaceMechanism(lambda d: float(np.sum(d)), 1.0, 0.5)
        direct = mechanism.release_many(
            DATASET, sum(requests), random_state=tenant_stream("alice", seed)
        )
        assert batched == list(direct)

    def test_max_batch_flushes_ahead_of_the_window(self):
        clock = SimulatedClock()
        service = make_service(clock, flush_window=1e9, max_batch=4)

        async def main():
            results = await asyncio.gather(
                *(service.submit("alice", "sum", DATASET) for _ in range(4))
            )
            return results, clock.now()

        results, elapsed = clock.run(main())
        assert len(results) == 4
        assert elapsed == 0.0  # never waited for the (absurd) window

    def test_distinct_datasets_do_not_coalesce(self):
        clock = SimulatedClock()
        service = make_service(clock, flush_window=0.05)
        other = [9.0, 9.5]
        tracer = Tracer("keys")

        async def main():
            return await asyncio.gather(
                service.submit("alice", "sum", DATASET),
                service.submit("alice", "sum", other),
            )

        with tracing(tracer):
            clock.run(main())
        assert tracer.metrics.counter("serving.flushes") == 2


class TestAdmissionControl:
    def test_over_budget_tenant_is_refused_before_release(self):
        clock = SimulatedClock()
        service = make_service(
            clock, budget=PrivacySpec(1.0), epsilon=0.4, flush_window=0.01
        )
        tracer = Tracer("admission")

        async def main():
            outcomes = []
            for _ in range(4):
                try:
                    await service.submit("alice", "sum", DATASET)
                    outcomes.append("ok")
                except PrivacyBudgetError:
                    outcomes.append("refused")
            return outcomes

        with tracing(tracer):
            outcomes = clock.run(main())
        assert outcomes == ["ok", "ok", "refused", "refused"]
        # Refused requests never reached the mechanism: releases == charges.
        assert tracer.metrics.counter("serving.released") == 2
        refusals = [e for e in tracer.events if e.kind == "refusal"]
        assert len(refusals) == 2
        # Ledger reconstruction: net charge events equal accountant spend.
        spent = service.registry.get("alice").accountant.spent_epsilon
        assert ledger_totals(tracer.events, kinds=("charge", "refund"))[0] == (
            pytest.approx(spent)
        )

    @pytest.mark.parametrize("costs", [(0.3, 0.7), (1.0,)])
    def test_whole_budget_is_admissible(self, costs):
        """Any request the tenant's remaining budget covers is served, up
        to the last unit of ε — including one larger than a quarter of the
        budget, and one costing the whole budget."""
        clock = SimulatedClock()
        service = make_service(
            clock, budget=PrivacySpec(1.0), epsilon=0.05, flush_window=0.01
        )
        for cost in costs:
            service.add_mechanism(
                f"sum-{cost}",
                LaplaceMechanism(lambda d: float(np.sum(d)), 1.0, cost),
            )
        tracer = Tracer("full-budget")

        async def main():
            for cost in costs:
                await service.submit("alice", f"sum-{cost}", DATASET)
            with pytest.raises(PrivacyBudgetError):
                await service.submit("alice", "sum", DATASET)

        with tracing(tracer):
            clock.run(main())
        accountant = service.registry.get("alice").accountant
        assert accountant.spent_epsilon == 1.0
        assert accountant.remaining_epsilon == 0.0
        assert tracer.metrics.counter("serving.released") == len(costs)
        refusals = [e for e in tracer.events if e.kind == "refusal"]
        assert len(refusals) == 1
        assert refusals[0].epsilon == 0.05
        assert refusals[0].remaining_epsilon == 0.0

    def test_ledger_events_carry_the_tenant_remainder(self):
        """Every charge and refund event reports what the tenant has left,
        and the events net out to the accountant's spend. Costs are
        dyadic so every partial sum is exact."""
        clock = SimulatedClock()
        registry = TenantRegistry()
        registry.register("alice", PrivacySpec(1.0), seed=11)
        mechanism = LaplaceMechanism(lambda d: float(np.sum(d)), 1.0, 0.125)
        served = ReleaseService(
            registry, clock=clock, config=ServiceConfig(flush_window=0.01)
        )
        # Requests on this front door time out while queued and refund.
        abandoned = ReleaseService(
            registry, clock=clock,
            config=ServiceConfig(flush_window=0.5, request_timeout=0.01),
        )
        served.add_mechanism("sum", mechanism)
        abandoned.add_mechanism("sum", mechanism)
        tracer = Tracer("remainders")

        async def main():
            for service in (served, abandoned, served, served, abandoned,
                            served):
                try:
                    await service.submit("alice", "sum", DATASET)
                except ServingTimeoutError:
                    pass
            await abandoned.drain()

        with tracing(tracer):
            clock.run(main())
        ledger = [e for e in tracer.events if e.kind in ("charge", "refund")]
        assert [e.kind for e in ledger] == [
            "charge", "charge", "refund", "charge", "charge", "charge",
            "refund", "charge",
        ]
        net = 0.0
        for event in ledger:
            net += event.epsilon if event.kind == "charge" else -event.epsilon
            assert event.remaining_epsilon == 1.0 - net
        accountant = registry.get("alice").accountant
        assert accountant.spent_epsilon == 0.5
        assert ledger_totals(tracer.events, kinds=("charge", "refund"))[0] == (
            accountant.spent_epsilon
        )

    def test_request_cost_is_the_spec_times_n(self):
        """One release is charged the mechanism's own spec; n releases
        are charged exactly ``PrivacySpec(nε, nδ)``."""
        clock = SimulatedClock()
        registry = TenantRegistry()
        registry.register("alice", PrivacySpec(100.0, delta=0.5), seed=11)
        service = ReleaseService(
            registry, clock=clock, config=ServiceConfig(flush_window=0.01)
        )
        mechanism = GaussianMechanism(lambda d: float(np.sum(d)), 1.0, 0.3, 1e-7)
        service.add_mechanism("sum", mechanism)
        spec = mechanism.privacy

        async def main():
            assert len(await service.submit("alice", "sum", DATASET)) == 1
            assert len(await service.submit("alice", "sum", DATASET, n=3)) == 3

        clock.run(main())
        ledger = registry.get("alice").accountant.ledger()
        assert [entry.spec for entry in ledger] == [
            spec, PrivacySpec(spec.epsilon * 3, spec.delta * 3)
        ]
        assert ledger[0].spec is spec

    def test_timed_out_single_request_refunds_to_an_empty_ledger(self):
        clock = SimulatedClock()
        service = make_service(clock, flush_window=0.5, request_timeout=0.01)

        async def main():
            with pytest.raises(ServingTimeoutError):
                await service.submit("alice", "sum", DATASET)
            await service.drain()

        clock.run(main())
        accountant = service.registry.get("alice").accountant
        assert accountant.ledger() == []
        assert accountant.spent is None
        assert accountant.remaining_epsilon == 100.0

    def test_unknown_mechanism_and_bad_n_are_usage_errors(self):
        clock = SimulatedClock()
        service = make_service(clock)

        async def main():
            with pytest.raises(ValidationError, match="unknown mechanism"):
                await service.submit("alice", "median", DATASET)
            with pytest.raises(ValidationError, match="n must be"):
                await service.submit("alice", "sum", DATASET, n=0)

        clock.run(main())


class TestShutdown:
    def test_drain_flushes_pending_batches_early(self):
        clock = SimulatedClock()
        service = make_service(clock, flush_window=1e9)

        async def main():
            pending = asyncio.ensure_future(
                service.submit("alice", "sum", DATASET)
            )
            await asyncio.sleep(0)
            await service.drain()
            return await pending, clock.now()

        outputs, elapsed = clock.run(main())
        assert len(outputs) == 1
        assert elapsed == 0.0

    def test_submit_after_shutdown_is_refused(self):
        clock = SimulatedClock()
        service = make_service(clock)

        async def main():
            await service.drain()
            with pytest.raises(ServiceClosedError):
                await service.submit("alice", "sum", DATASET)

        clock.run(main())

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            ServiceConfig(flush_window=-1.0)
        with pytest.raises(ValidationError):
            ServiceConfig(max_batch=0)
        with pytest.raises(ValidationError):
            ServiceConfig(request_timeout=0.0)
        with pytest.raises(ValidationError):
            ServiceConfig(max_retries=-1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("flush_window", float("nan")),
            ("flush_window", float("inf")),
            ("flush_window", float("-inf")),
            ("request_timeout", float("nan")),
            ("request_timeout", float("inf")),
            ("request_timeout", float("-inf")),
            ("max_batch", True),
            ("max_retries", True),
            ("max_retries", False),
        ],
    )
    def test_config_rejects_non_finite_and_boolean_values(self, field, value):
        with pytest.raises(ValidationError, match=field):
            ServiceConfig(**{field: value})

    def test_config_accepts_integer_durations(self):
        config = ServiceConfig(flush_window=0, request_timeout=2, max_batch=1)
        assert (config.flush_window, config.request_timeout) == (0, 2)
