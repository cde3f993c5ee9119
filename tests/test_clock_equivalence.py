"""Bit-for-bit equivalence of ``SimulatedClock`` with the clock it replaced.

``SimulatedClock`` files sleeps *and* request timeouts as deadline-heap
entries and advances when its event loop's selector finds nothing to run.
The clock before it drove time from a polling task that peeked at the
loop's ready queue, and raced each timed request against a timer task
through ``asyncio.wait``. ``ReferenceSimulatedClock`` below is a verbatim
copy of that clock, carrying the ``Clock.wait_for`` it inherited.

Every fleet here is served once on each clock. Records (in completion
order, with outputs and virtual start/finish times), ledger events,
accountant ledgers, ``spent_epsilon``, serving counters and the final
``clock.now()`` must all be identical. The one documented difference —
which of two exactly equal deadlines wakes first when one is a request
timeout — is pinned by its own test.
"""

from __future__ import annotations

import asyncio
import heapq

import numpy as np
import pytest

from repro.exceptions import (
    PrivacyBudgetError,
    ServiceClosedError,
    ServingError,
    ServingTimeoutError,
)
from repro.mechanisms import LaplaceMechanism, PrivacySpec
from repro.observability import Tracer, tracing
from repro.serving import (
    Clock,
    ReleaseService,
    ServiceConfig,
    SimulatedClock,
    TenantRegistry,
)
from repro.testing.statistical import derive_seed
from repro.utils.validation import check_random_state
from tests.test_failure_injection import FlakyMechanism

DATASET = [0.1, 0.4, 0.7]

# Verbatim copy of the previous ``SimulatedClock`` and the previous
# ``Clock.wait_for`` it inherited (timer task raced through asyncio.wait).

#: Fallback quiescence margin: consecutive no-progress event-loop passes
#: required to call the loop settled when the loop's ready queue cannot be
#: inspected directly. Each pass runs every currently-ready callback; a
#: resolved future wakes its waiter on the *next* pass, so the margin must
#: exceed the longest await chain between clock events.
_QUIESCE_STABLE_PASSES = 25


class ReferenceSimulatedClock(Clock):
    """Deterministic virtual time driven by a deadline heap.

    ``sleep`` never blocks on real time: it files a ``(deadline, seq,
    future)`` entry and suspends until the driver advances the clock to
    that deadline. ``seq`` breaks deadline ties in registration order, so
    wake order is a pure function of the workload.

    Use :meth:`run` to execute a coroutine to completion under this
    clock; it owns the advance loop (quiesce, then jump to the next
    deadline) and raises :class:`~repro.exceptions.ServingError` on a
    deadlock — tasks still pending with no timer left to fire.
    """

    async def wait_for(self, future: asyncio.Future, timeout: float | None):
        """Await ``future``, bounded by ``timeout`` seconds of clock time.

        Races the future against :meth:`sleep`. On expiry the future is
        left *pending* (not cancelled) and
        :class:`~repro.exceptions.ServingTimeoutError` is raised — the
        caller owns the rollback decision, because only it knows whether
        the underlying work already started.

        Parameters
        ----------
        future:
            The awaitable result being bounded.
        timeout:
            Clock seconds to wait; ``None`` waits forever.
        """
        if timeout is None:
            return await future
        timer = asyncio.ensure_future(self.sleep(timeout))
        try:
            await asyncio.wait(
                {future, timer}, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            if not timer.done():
                timer.cancel()
        if future.done():
            return future.result()
        raise ServingTimeoutError(
            f"request did not complete within {timeout:g}s"
        )

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._heap: list[tuple[float, int, asyncio.Future]] = []
        self._seq = 0
        self._activity = 0

    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    async def sleep(self, seconds: float) -> None:
        """Suspend until the driver advances past ``now() + seconds``.

        Parameters
        ----------
        seconds:
            Non-negative virtual delay; 0 yields once without filing a
            deadline.
        """
        self._activity += 1
        if seconds <= 0:
            await asyncio.sleep(0)
            return
        future = asyncio.get_running_loop().create_future()
        heapq.heappush(self._heap, (self._now + float(seconds), self._seq, future))
        self._seq += 1
        await future

    def advance_to_next(self) -> float:
        """Jump to the earliest pending deadline and wake its sleepers.

        All entries sharing the earliest deadline resolve in registration
        order. Entries whose futures were cancelled (abandoned timeouts)
        are discarded without waking anyone.
        """
        while self._heap:
            deadline, _, future = heapq.heappop(self._heap)
            if future.cancelled():
                continue
            self._now = max(self._now, deadline)
            future.set_result(None)
            self._activity += 1
            while self._heap and self._heap[0][0] <= self._now:
                _, _, later = heapq.heappop(self._heap)
                if not later.cancelled():
                    later.set_result(None)
                    self._activity += 1
            return self._now
        raise ServingError("no pending deadline to advance to")

    async def _quiesce(self) -> None:
        """Yield until every runnable task has run out of work.

        The exact signal is the event loop's ready queue: when the
        driver wakes from a zero-sleep and nothing else is queued, every
        other task is suspended on a future (a clock deadline or a peer),
        so only advancing time can create progress. The queue attribute
        is CPython's ``_ready``; on loops without it, fall back to
        counting clock-activity-stable passes with a generous margin.
        """
        ready = getattr(asyncio.get_running_loop(), "_ready", None)
        if ready is not None:
            while True:
                await asyncio.sleep(0)
                if not ready:
                    return
        stable = 0
        while stable < _QUIESCE_STABLE_PASSES:
            before = self._activity
            await asyncio.sleep(0)
            stable = stable + 1 if self._activity == before else 0

    def run(self, coroutine):
        """Execute ``coroutine`` to completion under this clock.

        Alternates quiescing the event loop with advancing the clock to
        the next deadline until the coroutine finishes. A pending
        coroutine with an empty deadline heap is a deadlock and raises
        :class:`~repro.exceptions.ServingError` rather than hanging.

        Parameters
        ----------
        coroutine:
            The workload to drive (e.g. a load-test fleet).
        """

        async def _drive():
            task = asyncio.ensure_future(coroutine)
            while True:
                await self._quiesce()
                if task.done():
                    return task.result()
                if not any(not f.cancelled() for _, _, f in self._heap):
                    task.cancel()
                    raise ServingError(
                        "simulated-clock deadlock: tasks pending but no "
                        "timer is scheduled to wake them"
                    )
                self.advance_to_next()

        return asyncio.run(_drive())


def counting_mechanism():
    """A Laplace counting release at 0.05 ε per draw."""
    return LaplaceMechanism(lambda d: float(np.sum(d)), 1.0, 0.05)


def flaky_mechanism():
    """Fails two draws in every seven, so some retries recover and some
    batches exhaust their retry budget."""
    return FlakyMechanism(
        fail_on=[call for call in range(100_000) if call % 7 in (3, 4)],
        epsilon=0.05,
    )


def run_fleet(clock_cls, *, clients=60, requests=6, tenants=3, budget=1.2,
              mechanism=counting_mechanism, shutdown=None, shutdown_at=0.05,
              max_think=0.02, seed=0, trace=True, **config):
    """Serve a closed-loop client fleet on one clock; return everything
    observable about the run.

    Each client thinks for a seeded uniform virtual time, submits one
    release to its tenant and records the outcome. ``shutdown`` names a
    service method (``"drain"`` or ``"abort"``) called at virtual time
    ``shutdown_at`` while clients are still submitting.
    """
    clock = clock_cls()
    registry = TenantRegistry()
    for index in range(tenants):
        registry.register(
            f"tenant-{index}", PrivacySpec(budget),
            seed=derive_seed("equivalence.tenant", index, base_seed=seed),
        )
    service = ReleaseService(registry, clock=clock, config=ServiceConfig(**config))
    service.add_mechanism("count", mechanism())
    records = []

    async def client(index):
        rng = check_random_state(
            derive_seed("equivalence.client", index, base_seed=seed))
        tenant_id = f"tenant-{index % tenants}"
        for request in range(requests):
            await clock.sleep(float(rng.uniform(0.0, max_think)))
            started = clock.now()
            outputs = []
            try:
                outputs = await service.submit(tenant_id, "count", DATASET)
                outcome = "ok"
            except PrivacyBudgetError:
                outcome = "refused"
            except ServingTimeoutError:
                outcome = "timeout"
            except ServiceClosedError:
                outcome = "closed"
            except ServingError:
                outcome = "error"
            records.append((index, request, outcome,
                            [float(value) for value in outputs],
                            started, clock.now()))

    async def fleet():
        everyone = asyncio.gather(*(client(index) for index in range(clients)))
        if shutdown is not None:
            await clock.sleep(shutdown_at)
            await getattr(service, shutdown)()
        await everyone
        await service.drain()

    tracer = Tracer("equivalence")
    if trace:
        with tracing(tracer):
            clock.run(fleet())
    else:
        clock.run(fleet())
    accountants = [registry.get(tenant_id).accountant
                   for tenant_id in registry.tenant_ids()]
    return {
        "records": records,
        "events": [event.to_dict() for event in tracer.events],
        "ledgers": [[(entry.label, entry.spec) for entry in accountant.ledger()]
                    for accountant in accountants],
        "spent_epsilon": [accountant.spent_epsilon for accountant in accountants],
        "counters": dict(tracer.metrics.counters),
        "now": clock.now(),
    }


#: name -> (run_fleet keyword arguments, serving counters the fleet must
#: exercise, so that no case passes vacuously).
FLEETS = {
    "untimed": ({}, ("serving.flushes", "accountant.refusals")),
    "timed": ({"request_timeout": 0.03},
              ("serving.timeouts", "accountant.refusals")),
    "timed-short-window": ({"request_timeout": 0.03, "flush_window": 0.02,
                            "budget": 5.0},
                           ("serving.coalesced",)),
    "drain": ({"request_timeout": 0.03, "shutdown": "drain"},
              ("serving.timeouts",)),
    "abort-timed": ({"request_timeout": 0.03, "shutdown": "abort"},
                    ("serving.aborted", "serving.timeouts")),
    "abort-untimed": ({"shutdown": "abort"}, ("serving.aborted",)),
    "retries": ({"mechanism": flaky_mechanism, "max_retries": 1,
                 "request_timeout": 0.045, "budget": 5.0, "clients": 12},
                ("serving.retries", "serving.batch_failures",
                 "serving.timeouts")),
    "max-batch": ({"max_batch": 4, "flush_window": 1.0,
                   "request_timeout": 0.01, "budget": 5.0, "max_think": 0.1},
                  ("serving.flushes", "serving.timeouts")),
}


@pytest.mark.parametrize("name", sorted(FLEETS))
@pytest.mark.parametrize("seed", [0, 7])
def test_fleet_is_bit_identical_to_the_reference_clock(name, seed):
    kwargs, exercised = FLEETS[name]
    new = run_fleet(SimulatedClock, seed=seed, **kwargs)
    reference = run_fleet(ReferenceSimulatedClock, seed=seed, **kwargs)
    for counter in exercised:
        assert new["counters"].get(counter, 0) > 0, (name, counter)
    assert {record[2] for record in new["records"]} - {"ok"}, name
    for key in ("records", "events", "ledgers", "spent_epsilon",
                "counters", "now"):
        assert new[key] == reference[key], (name, key)


def test_timeout_tied_with_its_window_wakes_first():
    """A request timeout registers inside ``submit``, one loop pass before
    the window timer of the batch that request opens. With the timeout
    equal to the window, the request times out and is refunded before the
    window flushes, so the mechanism never runs. The reference clock
    registered the timeout a pass later and served the request; no
    workload with continuous think times ties like this."""

    def serve(clock_cls):
        clock = clock_cls()
        registry = TenantRegistry()
        registry.register("alice", PrivacySpec(1.0), seed=3)
        service = ReleaseService(registry, clock=clock, config=ServiceConfig(
            flush_window=0.05, request_timeout=0.05))
        mechanism = FlakyMechanism(epsilon=0.25)
        service.add_mechanism("flaky", mechanism)

        async def main():
            try:
                await service.submit("alice", "flaky", DATASET)
                outcome = "ok"
            except ServingTimeoutError:
                outcome = "timeout"
            await service.drain()
            return outcome

        outcome = clock.run(main())
        spent = registry.get("alice").accountant.spent_epsilon
        return outcome, mechanism.calls, spent, clock.now()

    assert serve(SimulatedClock) == ("timeout", 0, 0.0, 0.05)
    assert serve(ReferenceSimulatedClock) == ("ok", 1, 0.25, 0.05)
