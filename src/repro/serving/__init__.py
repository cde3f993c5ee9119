"""Serving: a concurrent, budget-enforcing front door over the library.

PINQ's lesson — privacy must be enforced at the *platform* boundary, not
promised by call sites — applied to this reproduction: every release
request passes one :class:`~repro.serving.service.ReleaseService` that
charges the tenant's privacy accountant before anything runs, coalesces
concurrent same-key requests into single ``release_many`` batches (kept
invisible by the mechanisms' stream-equivalence contract), and wraps
execution in timeouts, deterministic-reseed retries, and graceful drain.

Time is pluggable (:mod:`repro.serving.clock`): real deployments use the
event loop's clock, while the load-test harness
(:mod:`repro.serving.loadtest`) drives thousands of simulated clients on
a virtual timeline and emits bit-reproducible ``LOADTEST_<id>.json``
reports. Entry points: ``repro serve`` (live demo) and
``repro loadtest`` (deterministic harness). See ``docs/SERVING.md``.
"""

from repro._lazy import attach as _attach

_EXPORTS = {
    "Clock": "repro.serving.clock",
    "SimulatedClock": "repro.serving.clock",
    "SystemClock": "repro.serving.clock",
    "LOADTEST_SCHEMA_VERSION": "repro.serving.loadtest",
    "LoadTestSpec": "repro.serving.loadtest",
    "deterministic_view": "repro.serving.loadtest",
    "measure_speedup": "repro.serving.loadtest",
    "run_loadtest": "repro.serving.loadtest",
    "validate_report": "repro.serving.loadtest",
    "write_report": "repro.serving.loadtest",
    "ReleaseService": "repro.serving.service",
    "ServiceConfig": "repro.serving.service",
    "Tenant": "repro.serving.tenants",
    "TenantRegistry": "repro.serving.tenants",
}

__all__ = [
    "Clock",
    "LOADTEST_SCHEMA_VERSION",
    "LoadTestSpec",
    "ReleaseService",
    "ServiceConfig",
    "SimulatedClock",
    "SystemClock",
    "Tenant",
    "TenantRegistry",
    "deterministic_view",
    "measure_speedup",
    "run_loadtest",
    "validate_report",
    "write_report",
]

__getattr__, __dir__ = _attach(__name__, _EXPORTS)
