"""Clocks for the serving layer: real time, and deterministic virtual time.

Every time-dependent decision the service makes — flush windows, request
timeouts, latency measurements — goes through a :class:`Clock` so the same
service code runs in two modes:

* :class:`SystemClock` binds to the running asyncio event loop's monotonic
  time for real deployments;
* :class:`SimulatedClock` owns a virtual timeline: every delay — a sleep
  or a request timeout — files a deadline in a heap, and time moves only
  when the event loop has nothing left to run. :meth:`SimulatedClock.run`
  drives the loop on a selector that, where the loop would block waiting
  for I/O, advances the clock to the next deadline instead. A fleet of
  thousands of simulated clients therefore runs in milliseconds of wall
  time, in an order fully determined by the (seeded) workload — the
  property the load-test harness's bit-identical reports rest on.

No wall-clock reads happen anywhere in the simulated path, so two runs of
the same workload interleave identically on any machine.
"""

from __future__ import annotations

import asyncio
import heapq
import selectors
import time
from functools import partial

from repro.exceptions import ServingError, ServingTimeoutError, ValidationError

__all__ = ["Clock", "SimulatedClock", "SystemClock"]


def _checked_delay(seconds, name: str):
    """Reject a NaN delay, which no deadline can be ordered against."""
    if seconds != seconds:
        raise ValidationError(f"{name} must not be NaN")
    return seconds


def _wake(waiter: asyncio.Future, _completed=None) -> None:
    """Resolve a deadline future unless it already resolved or was cancelled."""
    if not waiter.done():
        waiter.set_result(None)


class Clock:
    """Time source interface used by the serving layer.

    Subclasses provide ``now()``, ``sleep()`` and ``_deadline()``;
    :meth:`wait_for` is implemented once on top of ``_deadline`` so
    timeouts follow the same timeline as every other delay — real or
    simulated.
    """

    def now(self) -> float:
        """Current monotonic time in seconds."""
        raise NotImplementedError

    async def sleep(self, seconds: float) -> None:
        """Suspend the calling coroutine for ``seconds`` of clock time.

        Parameters
        ----------
        seconds:
            Non-negative delay; 0 yields once to the event loop. NaN
            raises :class:`~repro.exceptions.ValidationError`.
        """
        raise NotImplementedError

    def _deadline(self, seconds: float) -> asyncio.Future:
        """A future the clock resolves once ``seconds`` have elapsed.

        Anyone may resolve it earlier; the clock then skips it.
        """
        raise NotImplementedError

    async def wait_for(self, future: asyncio.Future, timeout: float | None):
        """Await ``future``, bounded by ``timeout`` seconds of clock time.

        Files one deadline future and suspends on it; ``future``
        completing first resolves that deadline early through a single
        done-callback. On expiry the future is left *pending* (not
        cancelled) and :class:`~repro.exceptions.ServingTimeoutError` is
        raised — the caller owns the rollback decision, because only it
        knows whether the underlying work already started.

        Parameters
        ----------
        future:
            The awaitable result being bounded.
        timeout:
            Clock seconds to wait; ``None`` waits forever. NaN raises
            :class:`~repro.exceptions.ValidationError`.
        """
        if timeout is None:
            return await future
        waiter = self._deadline(_checked_delay(timeout, "timeout"))
        wake = partial(_wake, waiter)
        future.add_done_callback(wake)
        try:
            await waiter
        finally:
            future.remove_done_callback(wake)
        if future.done():
            return future.result()
        raise ServingTimeoutError(
            f"request did not complete within {timeout:g}s"
        )


class SystemClock(Clock):
    """Real time: the running event loop's monotonic clock."""

    def now(self) -> float:
        """Monotonic wall time (valid inside or outside an event loop)."""
        return time.monotonic()

    async def sleep(self, seconds: float) -> None:
        """Delegate to :func:`asyncio.sleep`.

        Parameters
        ----------
        seconds:
            Non-negative delay in real seconds.
        """
        await asyncio.sleep(max(0.0, _checked_delay(seconds, "sleep delay")))

    def _deadline(self, seconds: float) -> asyncio.Future:
        """A loop timer resolves the future; resolving it first disarms it."""
        loop = asyncio.get_running_loop()
        waiter = loop.create_future()
        timer = loop.call_later(seconds, _wake, waiter)
        waiter.add_done_callback(lambda _: timer.cancel())
        return waiter


class _IdleAdvancingSelector(selectors.DefaultSelector):
    """A selector that advances a :class:`SimulatedClock` when the loop idles.

    The event loop asks for ``select(0)`` whenever callbacks are ready,
    and for a blocking ``select`` only when none are: every task is then
    suspended on a future, so only advancing time can make progress.
    """

    def __init__(self, clock: SimulatedClock) -> None:
        super().__init__()
        self._clock = clock

    def select(self, timeout=None):
        """Poll for I/O; with none ready and nothing runnable, advance."""
        if timeout == 0:
            return []
        events = super().select(0)
        if not events:
            self._clock.advance_to_next()
        return events


class SimulatedClock(Clock):
    """Deterministic virtual time driven by a deadline heap.

    ``sleep`` and ``wait_for`` never block on real time: each files a
    ``(deadline, seq, future)`` entry and suspends until the clock is
    advanced to that deadline. ``seq`` breaks deadline ties in
    registration order, so wake order is a pure function of the
    workload. A request timeout registers when ``wait_for`` is called —
    for the service, inside ``submit`` — while a batch's flush window
    registers one loop pass later, when its timer task first runs. So a
    request that opens a batch whose window equals its timeout (the same
    float) times out before the window flushes.

    Use :meth:`run` to execute a coroutine to completion under this
    clock: whenever the event loop runs out of ready callbacks, the clock
    jumps to the next deadline. It raises
    :class:`~repro.exceptions.ServingError` on a deadlock — tasks still
    pending with no timer left to fire.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._heap: list[tuple[float, int, asyncio.Future]] = []
        self._seq = 0

    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    async def sleep(self, seconds: float) -> None:
        """Suspend until the clock advances past ``now() + seconds``.

        Parameters
        ----------
        seconds:
            Non-negative virtual delay; 0 yields once without filing a
            deadline. NaN raises :class:`~repro.exceptions.ValidationError`.
        """
        if seconds > 0:
            await self._deadline(seconds)
        else:
            _checked_delay(seconds, "sleep delay")
            await asyncio.sleep(0)

    def _deadline(self, seconds: float) -> asyncio.Future:
        """File a ``(now + seconds, seq, future)`` entry in the heap."""
        waiter = asyncio.get_running_loop().create_future()
        heapq.heappush(self._heap, (self._now + float(seconds), self._seq, waiter))
        self._seq += 1
        return waiter

    def advance_to_next(self) -> float:
        """Jump to the earliest pending deadline and wake its waiters.

        All entries sharing the earliest deadline resolve in registration
        order. Entries whose futures are already done — a cancelled
        sleep, or a timeout whose request completed first — are
        discarded without waking anyone. With no pending entry left,
        raises the deadlock :class:`~repro.exceptions.ServingError`.
        """
        heap = self._heap
        while heap:
            deadline, _, waiter = heapq.heappop(heap)
            if waiter.done():
                continue
            self._now = max(self._now, deadline)
            waiter.set_result(None)
            while heap and heap[0][0] <= self._now:
                _wake(heapq.heappop(heap)[2])
            return self._now
        raise ServingError(
            "simulated-clock deadlock: tasks pending but no timer is "
            "scheduled to wake them"
        )

    def run(self, coroutine):
        """Execute ``coroutine`` to completion under this clock.

        Runs a fresh event loop whose selector advances the clock to the
        next deadline whenever no callback is ready, then cancels any
        task left behind and closes the loop, as :func:`asyncio.run`
        does. A pending coroutine with no deadline left is a deadlock and
        raises :class:`~repro.exceptions.ServingError` rather than
        hanging.

        Parameters
        ----------
        coroutine:
            The workload to drive (e.g. a load-test fleet).
        """
        try:
            asyncio.get_running_loop()
        except RuntimeError:
            loop = asyncio.SelectorEventLoop(_IdleAdvancingSelector(self))
        else:
            raise RuntimeError(
                "SimulatedClock.run() cannot be called from a running event loop"
            )
        try:
            return loop.run_until_complete(coroutine)
        finally:
            try:
                leftover = asyncio.all_tasks(loop)
                for task in leftover:
                    task.cancel()
                if leftover:
                    loop.run_until_complete(
                        asyncio.gather(*leftover, return_exceptions=True)
                    )
                loop.run_until_complete(loop.shutdown_asyncgens())
                loop.run_until_complete(loop.shutdown_default_executor())
            finally:
                loop.close()
