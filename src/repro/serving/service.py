"""The serving front door: admission control, batching, and robustness.

:class:`ReleaseService` is the single concurrent entry point in front of
the library's mechanisms. Every request passes through the same sequence:

1. **Admission control** — the tenant's privacy accountant is charged
   *before* anything executes (a reservation). A tenant over budget is
   refused here with a ledger
   :class:`~repro.observability.events.BudgetRefusalEvent` and a raised
   :class:`~repro.exceptions.PrivacyBudgetError`; no mechanism ever runs
   unpaid.
2. **Batching** — concurrent requests for the same (tenant, mechanism,
   dataset) within one flush window coalesce into a single
   ``release_many`` call. The batch contract of
   :meth:`repro.mechanisms.Mechanism.release_many` (stream equivalence)
   makes coalescing *invisible*: outputs are bit-identical to serving the
   same requests sequentially from the tenant's RNG stream.
3. **Robustness** — per-request clock timeouts, bounded retries with
   deterministically re-derived generators (the bench engine's
   ``reseed`` idiom), and graceful drain/abort on shutdown.

Reservation semantics: a charge is refunded **only** when the release
provably did not happen — a request that times out while still queued, a
batch that fails every retry, a queued request at abort. A request whose
batch was already executing keeps its charge even if the caller timed
out, because the ledger must never under-count a release that happened.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro.exceptions import (
    ServiceClosedError,
    ServingError,
    ServingTimeoutError,
    ValidationError,
)
from repro.experiments.runner import reseed
from repro.mechanisms.base import Mechanism, PrivacySpec
from repro.observability import tracer as _trace
from repro.serving.clock import Clock, SystemClock
from repro.serving.tenants import Tenant, TenantRegistry
from repro.testing.statistical import derive_seed
from repro.utils.validation import check_random_state

__all__ = ["ReleaseService", "ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of the serving front door.

    Parameters
    ----------
    flush_window:
        Clock seconds a batch stays open collecting same-key requests
        before flushing.
    max_batch:
        Release count that flushes a batch immediately, ahead of its
        window.
    request_timeout:
        Per-request clock deadline (``None`` waits forever).
    max_retries:
        Batch re-execution budget after a failure; each retry draws from
        a deterministically re-derived generator.
    batching:
        ``False`` serves every request as its own immediate batch
        (the baseline the load-test harness compares against).
    """

    flush_window: float = 0.05
    max_batch: int = 64
    request_timeout: float | None = None
    max_retries: int = 0
    batching: bool = True

    def __post_init__(self) -> None:
        if self.flush_window < 0:
            raise ValidationError("flush_window must be >= 0")
        if not isinstance(self.max_batch, int) or self.max_batch < 1:
            raise ValidationError("max_batch must be an integer >= 1")
        if self.request_timeout is not None and self.request_timeout <= 0:
            raise ValidationError("request_timeout must be > 0 (or None)")
        if not isinstance(self.max_retries, int) or self.max_retries < 0:
            raise ValidationError("max_retries must be an integer >= 0")


@dataclass
class _Request:
    """One admitted release request riding a batch."""

    n: int
    cost: PrivacySpec
    label: str
    future: asyncio.Future
    abandoned: bool = False


@dataclass
class _Batch:
    """Requests coalescing toward one ``release_many`` flush."""

    key: tuple
    tenant: Tenant
    mechanism: Mechanism
    dataset: object
    index: int
    requests: list[_Request] = field(default_factory=list)
    total: int = 0
    closed: bool = False
    timer: asyncio.Task | None = None


class ReleaseService:
    """Concurrent, budget-enforcing front door over registered mechanisms.

    Single-event-loop by design: mechanism kernels execute synchronously
    on the loop, so flushes for one tenant never interleave mid-release
    and the tenant's RNG stream advances in a deterministic order under a
    :class:`~repro.serving.clock.SimulatedClock`.

    Parameters
    ----------
    registry:
        The tenant directory requests are resolved against.
    clock:
        Time source for windows and timeouts (default: real time).
    config:
        Batching/robustness tunables (default: :class:`ServiceConfig`).
    """

    def __init__(
        self,
        registry: TenantRegistry,
        *,
        clock: Clock | None = None,
        config: ServiceConfig | None = None,
    ) -> None:
        if not isinstance(registry, TenantRegistry):
            raise ValidationError("registry must be a TenantRegistry")
        self.registry = registry
        self.clock = clock if clock is not None else SystemClock()
        self.config = config if config is not None else ServiceConfig()
        self._mechanisms: dict[str, Mechanism] = {}
        self._open: dict[tuple, _Batch] = {}
        self._inflight: set[asyncio.Task] = set()
        self._batch_count = 0
        self._closed = False

    def add_mechanism(self, mechanism_id: str, mechanism: Mechanism) -> None:
        """Register a mechanism under a routable id.

        Parameters
        ----------
        mechanism_id:
            Unique name requests address the mechanism by.
        mechanism:
            The :class:`~repro.mechanisms.Mechanism` instance to serve.
        """
        if not isinstance(mechanism_id, str) or not mechanism_id:
            raise ValidationError("mechanism_id must be a non-empty string")
        if not isinstance(mechanism, Mechanism):
            raise ValidationError("mechanism must be a Mechanism")
        if mechanism_id in self._mechanisms:
            raise ValidationError(f"mechanism {mechanism_id!r} already registered")
        self._mechanisms[mechanism_id] = mechanism

    def mechanism_ids(self) -> list[str]:
        """Registered mechanism ids, sorted."""
        return sorted(self._mechanisms)

    async def submit(self, tenant_id: str, mechanism_id: str, dataset, n: int = 1):
        """Serve ``n`` releases of ``dataset`` for a tenant.

        Charges the reservation up front (raising
        :class:`~repro.exceptions.PrivacyBudgetError` on refusal), rides
        the coalescing batch for the (tenant, mechanism, dataset) key,
        and resolves to the request's slice of the flushed outputs.

        Parameters
        ----------
        tenant_id:
            The requesting tenant.
        mechanism_id:
            A mechanism previously registered with :meth:`add_mechanism`.
        dataset:
            The dataset to query, as the mechanism expects it.
        n:
            Number of releases requested (integer ≥ 1).

        Returns
        -------
        list
            The ``n`` outputs, in draw order.
        """
        if self._closed:
            raise ServiceClosedError("service is shut down; submit refused")
        tenant = self.registry.get(tenant_id)
        mechanism = self._mechanisms.get(mechanism_id)
        if mechanism is None:
            raise ValidationError(f"unknown mechanism {mechanism_id!r}")
        if not isinstance(n, int) or n < 1:
            raise ValidationError(f"n must be an integer >= 1, got {n!r}")

        spec = mechanism.privacy
        # A single release costs exactly the mechanism's own spec (x * 1
        # is x), already validated; only n > 1 needs a new one.
        cost = spec if n == 1 else PrivacySpec(spec.epsilon * n, spec.delta * n)
        label = f"serve:{tenant_id}:{mechanism_id}"
        # Admission control: reserve before anything executes. Refusals
        # raise out of here with one ledger refusal event already emitted.
        tenant.accountant.charge(cost, label=label)
        tracer = _trace.current()
        if tracer is not None:
            tracer.count("serving.requests")

        request = _Request(
            n=n, cost=cost, label=label,
            future=asyncio.get_running_loop().create_future(),
        )
        batch = self._enqueue(tenant, mechanism_id, mechanism, dataset, request)
        try:
            return await self.clock.wait_for(
                request.future, self.config.request_timeout
            )
        except ServingTimeoutError:
            if tracer is not None:
                tracer.count("serving.timeouts")
            if not batch.closed:
                # Still queued: nothing was released, so the reservation
                # rolls back and the batch skips this request at flush.
                request.abandoned = True
                tenant.accountant.refund(cost, label=label)
            raise

    def _enqueue(self, tenant, mechanism_id, mechanism, dataset, request) -> _Batch:
        """File a request into its coalescing batch (opening one if needed)."""
        if self.config.batching:
            key = (tenant.tenant_id, mechanism_id, id(dataset))
            batch = self._open.get(key)
        else:
            key = (tenant.tenant_id, mechanism_id, self._batch_count)
            batch = None
        if batch is None:
            batch = _Batch(
                key=key, tenant=tenant, mechanism=mechanism,
                dataset=dataset, index=self._batch_count,
            )
            self._batch_count += 1
            if self.config.batching:
                self._open[key] = batch
                batch.timer = asyncio.ensure_future(self._flush_after(batch))
        batch.requests.append(request)
        batch.total += request.n
        if not self.config.batching:
            self._spawn_flush(batch)
        elif batch.total >= self.config.max_batch:
            self._close(batch)
            self._spawn_flush(batch)
        # The batch is an internal coalescing handle, not a data egress:
        # its dataset only leaves through release_many in _execute.
        return batch  # dplint: disable=DPL007 -- internal handle, no egress

    async def _flush_after(self, batch: _Batch) -> None:
        """Window timer: flush the batch when its window elapses."""
        await self.clock.sleep(self.config.flush_window)
        if batch.closed:
            return
        self._close(batch)
        await self._execute(batch)

    def _close(self, batch: _Batch) -> None:
        """Seal a batch: no more riders, window timer disarmed."""
        batch.closed = True
        self._open.pop(batch.key, None)
        timer = batch.timer
        if timer is not None and not timer.done() and timer is not asyncio.current_task():
            timer.cancel()

    def _spawn_flush(self, batch: _Batch) -> None:
        """Run a sealed batch's flush as a tracked background task."""
        batch.closed = True
        task = asyncio.ensure_future(self._execute(batch))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _execute(self, batch: _Batch) -> None:
        """Flush one sealed batch: release, split, deliver (or roll back).

        Attempt 0 draws from the tenant's persistent stream; retry ``k``
        re-derives a fresh generator from ``reseed`` so a failing batch
        never replays the exact draw that failed, yet stays reproducible.
        After the retry budget, every rider's reservation is refunded and
        its future fails — a batch failure is loud, never a silent drop.
        """
        requests = [r for r in batch.requests if not r.abandoned]
        if not requests:
            return
        total = sum(request.n for request in requests)
        tracer = _trace.current()
        attempt = 0
        while True:
            if attempt == 0:
                rng = batch.tenant.rng
            else:
                rng = check_random_state(
                    reseed(
                        derive_seed(
                            "serving.retry", batch.tenant.tenant_id,
                            batch.index, base_seed=batch.tenant.seed,
                        ),
                        attempt,
                    )
                )
            try:
                outputs = batch.mechanism.release_many(
                    batch.dataset, total, random_state=rng
                )
            except Exception as error:
                # Any failure — including a ValidationError from the
                # mechanism — must resolve the riders' futures: a flush
                # that re-raised out of its task would leave every
                # submitter suspended forever with its charge kept.
                attempt += 1
                if attempt <= self.config.max_retries:
                    if tracer is not None:
                        tracer.count("serving.retries")
                    continue
                self._fail_batch(batch, requests, attempt, error)
                return
            break
        if tracer is not None:
            tracer.count("serving.flushes")
            tracer.count("serving.released", total)
            tracer.observe("serving.batch_size", total)
            if len(requests) > 1:
                tracer.count("serving.coalesced", len(requests))
        offset = 0
        for request in requests:
            piece = list(outputs[offset:offset + request.n])
            offset += request.n
            if request.future.done():
                # The caller timed out while we were executing: the
                # release happened, so the charge stands; only the
                # delivery is dropped.
                if tracer is not None:
                    tracer.count("serving.dropped_outputs", request.n)
            else:
                request.future.set_result(piece)

    def _fail_batch(self, batch, requests, attempts, error) -> None:
        """Roll back a batch that exhausted its retry budget."""
        tracer = _trace.current()
        for request in requests:
            # Nothing was delivered and the batch as a whole failed:
            # the reservation rolls back (emitting a refund event).
            batch.tenant.accountant.refund(request.cost, label=request.label)
            if tracer is not None:
                tracer.count("serving.batch_failures")
        failure = ServingError(
            f"batch flush failed after {attempts} attempt(s): {error}"
        )
        failure.__cause__ = error
        for request in requests:
            if not request.future.done():
                request.future.set_exception(failure)

    async def drain(self) -> None:
        """Graceful shutdown: flush everything queued, then wait it out.

        New submissions are refused from the moment drain starts; open
        batches flush immediately (their windows are cut short) and the
        call returns once every in-flight flush has completed.
        """
        self._closed = True
        for batch in list(self._open.values()):
            self._close(batch)
            self._spawn_flush(batch)
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)

    async def abort(self) -> None:
        """Hard shutdown: refund and fail everything still queued.

        Queued (never-executed) requests are provably unreleased, so
        their reservations roll back and their futures fail with
        :class:`~repro.exceptions.ServiceClosedError`. Flushes already
        executing are allowed to finish — their releases happened.
        """
        self._closed = True
        tracer = _trace.current()
        for batch in list(self._open.values()):
            self._close(batch)
            for request in batch.requests:
                if request.abandoned:
                    continue
                batch.tenant.accountant.refund(request.cost, label=request.label)
                if tracer is not None:
                    tracer.count("serving.aborted")
                if not request.future.done():
                    request.future.set_exception(
                        ServiceClosedError("service aborted before flush")
                    )
                request.abandoned = True
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)
