"""Deterministic load testing of the serving front door.

The harness drives a fleet of simulated clients against a
:class:`~repro.serving.service.ReleaseService` under a
:class:`~repro.serving.clock.SimulatedClock`: every think-time, flush
window, and timeout lives on the virtual timeline, and every client's
behaviour is derived from the spec seed. Two runs of the same
:class:`LoadTestSpec` therefore produce **bit-identical reports modulo
the wall-clock section** — outcomes, output digests, simulated
latencies, and per-tenant spends all reproduce exactly, which is what
lets CI diff a load test like any other artifact.

Reports are schema-versioned JSON (``LOADTEST_<id>.json``); use
:func:`deterministic_view` to strip the wall-clock fields before
comparing, and :func:`measure_speedup` to quantify what window batching
buys over serving each request alone.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.exceptions import (
    PrivacyBudgetError,
    ServingError,
    ServingTimeoutError,
    ValidationError,
)
from repro.mechanisms.base import Mechanism, PrivacySpec
from repro.mechanisms.exponential import ExponentialMechanism
from repro.mechanisms.laplace import LaplaceMechanism
from repro.observability import Tracer, tracing
from repro.observability.metrics import HistogramSummary
from repro.serving.clock import SimulatedClock, SystemClock
from repro.serving.service import ReleaseService, ServiceConfig
from repro.serving.tenants import TenantRegistry
from repro.testing.statistical import derive_seed
from repro.utils.validation import check_positive, check_random_state

__all__ = [
    "LOADTEST_SCHEMA_VERSION",
    "LoadTestSpec",
    "deterministic_view",
    "measure_speedup",
    "run_loadtest",
    "validate_report",
    "write_report",
]

#: Version stamped on every report; bump on breaking layout changes.
LOADTEST_SCHEMA_VERSION = 1

#: Keys every report must carry (checked by :func:`validate_report`).
_REPORT_KEYS = ("schema_version", "loadtest_id", "spec", "deterministic",
                "wall_clock")
_DETERMINISTIC_KEYS = ("requests", "outcomes", "outputs_digest",
                       "simulated_seconds", "latency", "tenants", "serving")


@dataclass(frozen=True)
class LoadTestSpec:
    """A complete, seedable description of one load test.

    Parameters
    ----------
    loadtest_id:
        Identifier stamped on the report (``LOADTEST_<id>.json``); it
        may not contain ``/`` or ``\\``, nor be ``.`` or ``..``.
    clients:
        Number of concurrent simulated clients.
    requests_per_client:
        Releases each client requests, one submit at a time.
    tenants:
        Tenant pool size; client ``i`` belongs to tenant ``i % tenants``.
    seed:
        Root seed; every client stream and tenant stream derives from it.
    mechanism:
        ``"laplace"`` (cheap scalar query) or ``"exponential"``
        (candidate scoring, where batching amortizes the tilt).
    epsilon:
        Per-release ε of the served mechanism.
    budget_epsilon:
        Each tenant's total ε budget.
    candidates:
        Candidate-range size for the exponential mechanism.
    mean_think:
        Mean virtual seconds a client idles between requests.
    flush_window / max_batch / request_timeout / max_retries / batching:
        Forwarded to :class:`~repro.serving.service.ServiceConfig`.
    """

    loadtest_id: str = "smoke"
    clients: int = 8
    requests_per_client: int = 4
    tenants: int = 2
    seed: int = 0
    mechanism: str = "laplace"
    epsilon: float = 0.05
    budget_epsilon: float = 50.0
    candidates: int = 64
    mean_think: float = 0.01
    flush_window: float = 0.02
    max_batch: int = 256
    request_timeout: float | None = None
    max_retries: int = 0
    batching: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.loadtest_id, str) or not self.loadtest_id:
            raise ValidationError("loadtest_id must be a non-empty string")
        if (
            "/" in self.loadtest_id
            or "\\" in self.loadtest_id
            or self.loadtest_id in (".", "..")
        ):
            # The id names the report file; it must not name a directory.
            raise ValidationError(
                f"loadtest_id must be a plain file-name part, "
                f"got {self.loadtest_id!r}"
            )
        for name in ("clients", "requests_per_client", "tenants", "candidates"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ValidationError(f"{name} must be an integer >= 1")
        if self.mechanism not in ("laplace", "exponential"):
            raise ValidationError(
                f"mechanism must be 'laplace' or 'exponential', "
                f"got {self.mechanism!r}"
            )
        if self.mean_think < 0:
            raise ValidationError("mean_think must be >= 0")
        check_positive(self.epsilon, name="epsilon")

    def to_dict(self) -> dict:
        """The spec as a JSON-serializable dict."""
        return dataclasses.asdict(self)


def _build_mechanism(spec: LoadTestSpec) -> Mechanism:
    """The served mechanism for a spec (dataset-independent construction)."""
    if spec.mechanism == "laplace":
        return LaplaceMechanism(
            lambda d: float(np.sum(d)), sensitivity=1.0, epsilon=spec.epsilon
        )
    return ExponentialMechanism(
        lambda d, u: -abs(float(np.sum(d)) - u),
        outputs=range(spec.candidates),
        sensitivity=1.0,
        epsilon=spec.epsilon,
    )


def _build_service(spec: LoadTestSpec, clock) -> tuple[ReleaseService, object]:
    """Registry + service + shared dataset for one load-test run."""
    registry = TenantRegistry()
    for index in range(spec.tenants):
        registry.register(
            f"tenant-{index}",
            PrivacySpec(spec.budget_epsilon),
            seed=derive_seed("loadtest.tenant", spec.loadtest_id, index,
                             base_seed=spec.seed),
        )
    service = ReleaseService(
        registry,
        clock=clock,
        config=ServiceConfig(
            flush_window=spec.flush_window,
            max_batch=spec.max_batch,
            request_timeout=spec.request_timeout,
            max_retries=spec.max_retries,
            batching=spec.batching,
        ),
    )
    service.add_mechanism(spec.mechanism, _build_mechanism(spec))
    data_rng = check_random_state(
        derive_seed("loadtest.dataset", spec.loadtest_id, base_seed=spec.seed)
    )
    dataset = data_rng.integers(0, 2, size=32)
    return service, dataset


async def _client(spec, service, clock, dataset, client_index, records):
    """One simulated client: think, submit, record the outcome."""
    rng = check_random_state(
        derive_seed("loadtest.client", spec.loadtest_id, client_index,
                    base_seed=spec.seed)
    )
    tenant_id = f"tenant-{client_index % spec.tenants}"
    for request_index in range(spec.requests_per_client):
        if spec.mean_think > 0:
            await clock.sleep(float(rng.uniform(0.0, 2.0 * spec.mean_think)))
        started = clock.now()
        outputs: list = []
        try:
            outputs = await service.submit(
                tenant_id, spec.mechanism, dataset, n=1
            )
            outcome = "ok"
        except PrivacyBudgetError:
            outcome = "refused"
        except ServingTimeoutError:
            outcome = "timeout"
        except ServingError:
            outcome = "error"
        records.append(
            (
                client_index,
                request_index,
                outcome,
                [float(value) for value in outputs],
                clock.now() - started,
            )
        )


async def _fleet(spec, service, clock, dataset, records) -> None:
    """All clients concurrently, then a graceful drain."""
    await asyncio.gather(
        *(
            _client(spec, service, clock, dataset, index, records)
            for index in range(spec.clients)
        )
    )
    await service.drain()


def run_loadtest(spec: LoadTestSpec, *, simulated: bool = True) -> dict:
    """Execute one load test and return its report.

    Parameters
    ----------
    spec:
        The workload description.
    simulated:
        ``True`` (default) drives everything on a
        :class:`~repro.serving.clock.SimulatedClock`, making the report's
        ``deterministic`` section bit-reproducible. ``False`` uses real
        time (the ``repro serve`` demo mode); only the report layout is
        stable then.
    """
    if not isinstance(spec, LoadTestSpec):
        raise ValidationError("spec must be a LoadTestSpec")
    clock = SimulatedClock() if simulated else SystemClock()
    service, dataset = _build_service(spec, clock)
    records: list[tuple] = []
    tracer = Tracer(f"loadtest:{spec.loadtest_id}")
    started_wall = time.perf_counter()
    simulated_start = clock.now()
    with tracing(tracer):
        if simulated:
            clock.run(_fleet(spec, service, clock, dataset, records))
        else:
            asyncio.run(_fleet(spec, service, clock, dataset, records))
    wall_seconds = time.perf_counter() - started_wall
    return _report(spec, service, records, tracer,
                   clock.now() - simulated_start, wall_seconds)


def _report(spec, service, records, tracer, simulated_seconds, wall_seconds):
    """Assemble the schema-versioned report from one run's raw records."""
    records = sorted(records, key=lambda record: (record[0], record[1]))
    outcomes: dict[str, int] = {}
    latency = HistogramSummary()
    digest = hashlib.sha256()
    for client_index, request_index, outcome, outputs, seconds in records:
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
        latency.observe(seconds)
        digest.update(
            repr((client_index, request_index, outcome, outputs)).encode()
        )
    tenants = []
    for tenant_id in service.registry.tenant_ids():
        accountant = service.registry.get(tenant_id).accountant
        spent = accountant.spent_epsilon
        budget = accountant.budget.epsilon
        tenants.append(
            {
                "tenant_id": tenant_id,
                "budget_epsilon": budget,
                "spent_epsilon": spent,
                "over_spend": bool(spent > budget * (1.0 + 1e-9)),
            }
        )
    counters = tracer.metrics.counters
    return {
        "schema_version": LOADTEST_SCHEMA_VERSION,
        "loadtest_id": spec.loadtest_id,
        "spec": spec.to_dict(),
        "deterministic": {
            "requests": len(records),
            "outcomes": {name: outcomes[name] for name in sorted(outcomes)},
            "outputs_digest": digest.hexdigest(),
            "simulated_seconds": simulated_seconds,
            "latency": latency.to_dict(),
            "tenants": tenants,
            "serving": {
                "flushes": int(counters.get("serving.flushes", 0)),
                "coalesced_requests": int(counters.get("serving.coalesced", 0)),
                "released": int(counters.get("serving.released", 0)),
                "timeouts": int(counters.get("serving.timeouts", 0)),
                "batch_failures": int(counters.get("serving.batch_failures", 0)),
                "refusals": int(counters.get("accountant.refusals", 0)),
            },
        },
        "wall_clock": {
            "seconds": wall_seconds,
            "requests_per_second": (
                len(records) / wall_seconds if wall_seconds > 0 else 0.0
            ),
        },
    }


def deterministic_view(report: dict) -> dict:
    """The report minus its wall-clock section (the comparable part).

    Parameters
    ----------
    report:
        A report produced by :func:`run_loadtest`.
    """
    validate_report(report)
    return {
        key: report[key] for key in _REPORT_KEYS if key != "wall_clock"
    }


def validate_report(report: dict) -> None:
    """Check a report against the current schema, raising on violations.

    Parameters
    ----------
    report:
        The parsed ``LOADTEST_<id>.json`` payload.
    """
    if not isinstance(report, dict):
        raise ValidationError("load-test report must be a dict")
    missing = [key for key in _REPORT_KEYS if key not in report]
    if missing:
        raise ValidationError(f"load-test report is missing keys: {missing}")
    if report["schema_version"] != LOADTEST_SCHEMA_VERSION:
        raise ValidationError(
            f"unsupported load-test schema_version "
            f"{report['schema_version']!r} (expected {LOADTEST_SCHEMA_VERSION})"
        )
    deterministic = report["deterministic"]
    if not isinstance(deterministic, dict):
        raise ValidationError("'deterministic' section must be a dict")
    absent = [key for key in _DETERMINISTIC_KEYS if key not in deterministic]
    if absent:
        raise ValidationError(
            f"'deterministic' section is missing keys: {absent}"
        )


def write_report(report: dict, output_dir) -> Path:
    """Write ``LOADTEST_<id>.json`` under ``output_dir`` and return its path.

    Parameters
    ----------
    report:
        A validated report from :func:`run_loadtest`.
    output_dir:
        Directory receiving the file (created if needed).
    """
    validate_report(report)
    directory = Path(output_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"LOADTEST_{report['loadtest_id']}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


def measure_speedup(spec: LoadTestSpec) -> tuple[dict, dict, float]:
    """Run a spec batched and unbatched; report both and the speedup.

    Parameters
    ----------
    spec:
        The workload; its ``batching`` flag is overridden both ways.

    Returns
    -------
    tuple
        ``(batched_report, unbatched_report, speedup)`` where ``speedup``
        is the unbatched/batched wall-seconds ratio (> 1 means batching
        won).
    """
    batched = run_loadtest(dataclasses.replace(spec, batching=True))
    unbatched = run_loadtest(dataclasses.replace(spec, batching=False))
    batched_seconds = batched["wall_clock"]["seconds"]
    unbatched_seconds = unbatched["wall_clock"]["seconds"]
    speedup = (
        unbatched_seconds / batched_seconds if batched_seconds > 0 else float("inf")
    )
    return batched, unbatched, speedup
