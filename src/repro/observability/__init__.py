"""Observability: spans, metrics, and the privacy-ledger event stream.

The paper's stance — a DP learner is an information channel whose ε is a
measured quantity — implies the budget flow should be *observable*, not
just declared. This package is the cross-cutting layer that records it:

* **Spans** (:class:`Tracer.span <repro.observability.tracer.Tracer.span>`):
  nested, monotonic-clock-timed regions with a wall-clock anchor;
* **Metrics**: lazily-created counters and histogram summaries
  (mechanism releases, audit trials, cache hits, solver iterations);
* **Privacy ledger**: typed events for every ``Mechanism.release``
  (emitted by a base-class hook covering all mechanism families), every
  ``PrivacyAccountant`` charge or refusal, and every Gibbs temperature
  calibration — each carrying its (ε, δ) so :func:`ledger_totals`
  reconstructs the basic-composition spend of a run exactly.

Tracing is disabled by default and the disabled hooks are near-free; turn
it on with the :func:`tracing` context manager, or from the CLI via
``repro bench/audit --trace/--trace-json`` and inspect results with
``repro trace``. Schema and overhead notes: ``docs/OBSERVABILITY.md``.
"""

from repro._lazy import attach as _attach

_EXPORTS = {
    "BudgetChargeEvent": "repro.observability.events",
    "BudgetRefundEvent": "repro.observability.events",
    "BudgetRefusalEvent": "repro.observability.events",
    "CalibrationEvent": "repro.observability.events",
    "LedgerEvent": "repro.observability.events",
    "MechanismReleaseEvent": "repro.observability.events",
    "event_from_dict": "repro.observability.events",
    "ledger_totals": "repro.observability.events",
    "load_trace": "repro.observability.export",
    "render_trace": "repro.observability.export",
    "validate_trace": "repro.observability.export",
    "write_trace": "repro.observability.export",
    "HistogramSummary": "repro.observability.metrics",
    "MetricSet": "repro.observability.metrics",
    "ConsoleSink": "repro.observability.sinks",
    "FileSink": "repro.observability.sinks",
    "TRACE_SCHEMA_VERSION": "repro.observability.tracer",
    "SpanRecord": "repro.observability.tracer",
    "Tracer": "repro.observability.tracer",
    "activate": "repro.observability.tracer",
    "current": "repro.observability.tracer",
    "deactivate": "repro.observability.tracer",
    "tracing": "repro.observability.tracer",
}

__all__ = [
    "BudgetChargeEvent",
    "BudgetRefundEvent",
    "BudgetRefusalEvent",
    "CalibrationEvent",
    "ConsoleSink",
    "FileSink",
    "HistogramSummary",
    "LedgerEvent",
    "MechanismReleaseEvent",
    "MetricSet",
    "SpanRecord",
    "TRACE_SCHEMA_VERSION",
    "Tracer",
    "activate",
    "current",
    "deactivate",
    "event_from_dict",
    "ledger_totals",
    "load_trace",
    "render_trace",
    "tracing",
    "validate_trace",
    "write_trace",
]

__getattr__, __dir__ = _attach(__name__, _EXPORTS)
