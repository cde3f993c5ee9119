"""Measuring one workload in one process: set up, then time its units.

:mod:`perf.child` runs this in a fresh process for every set-up sample and
every measurement. Measuring executes the workload's units round after
round until the time is up, and starts a unit only while its last
execution would still fit, so cheap units collect more samples than
costly ones. Every execution is timed between two calibration probes and
its time rescaled to reference seconds (see :mod:`perf.calibration`). One
pass is every unit once; its time is the sum of the units' median times.
A traced run measures the same way twice, untraced and then traced, and
reports the folded self time of each layer in the median execution of
every unit, and the overhead of tracing.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import statistics
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.observability import Tracer, tracing

from perf import calibration
from perf.trace import Recorder, columns, self_times
from perf.workloads import EXPERIMENT_IDS, FAMILIES, WORKLOADS, Unit, Workload


@dataclass
class Execution:
    """One timed execution of a unit.

    ``seconds`` and the self times in ``layers`` are reference seconds;
    ``raw_seconds`` is the wall time as measured.
    """

    seconds: float
    raw_seconds: float
    summary: dict
    layers: dict | None = None


def execute(workload: Workload, unit: Unit, traced: bool):
    """Run ``unit`` once; returns its wall seconds, summary and recorder."""
    recorder = None
    tracer = Tracer(f"perf:{workload.name}") if traced else None
    with tracing(tracer) if traced else contextlib.nullcontext():
        if traced:
            recorder = Recorder(tracer)
            root = recorder.begin(unit.layer)
        started = time.perf_counter()
        try:
            raw, error = unit.run(recorder), None
        except Exception as caught:  # a failed unit is counted, and the run goes on
            traceback.print_exc()
            raw, error = None, caught
        seconds = time.perf_counter() - started
        if traced:
            recorder.end(root, failed=error is not None)
    if error is None:
        summary = workload.summarize(unit, raw, recorder)
    else:
        summary = {"failed": unit.ops, "digest": "",
                   "problems": [f"{unit.name}: {type(error).__name__}: {error}"]}
    if traced:
        summary["ledger_events"] = len(tracer.events)
    return seconds, summary, recorder


def profile(recorder: Recorder, factor: float) -> dict:
    """The per-layer numbers of one traced execution, self times scaled by
    ``factor``."""
    spans = recorder.spans
    kernels = [span for span in spans if span.name == "mechanisms.release_many"]
    return {
        "self_s": {name: seconds * factor
                   for name, seconds in self_times(spans).items()},
        "calls": Counter(span.name for span in spans),
        "failed": Counter(span.name for span in spans if span.failed),
        "draws": sum(span.size or 0 for span in kernels),
        "batch_sizes": [
            span.size for span in kernels
            if span.parent is not None
            and spans[span.parent].name == "serving.service.loop"
        ],
    }


def measure(workload: Workload, units: list[Unit], seconds: float, *,
            traced: bool = False):
    """Execute ``units`` for ``seconds``; every unit runs at least once.

    Returns ``(executions by unit name, spans of each unit's first
    execution)``; the spans are empty unless ``traced``.
    """
    executions: dict[str, list[Execution]] = {unit.name: [] for unit in units}
    first_spans: dict[str, list] = {}
    deadline = time.perf_counter() + seconds
    before = calibration.probe()
    ran = True
    while ran:
        ran = False
        for unit in units:
            done = executions[unit.name]
            if done and time.perf_counter() + done[-1].raw_seconds > deadline:
                continue
            wall, summary, recorder = execute(workload, unit, traced)
            after = calibration.probe()
            factor = calibration.scale(before, after)
            before = after
            layers = None
            if traced:
                layers = profile(recorder, factor)
                if not done:
                    first_spans[unit.name] = recorder.spans
            done.append(Execution(wall * factor, wall, summary, layers))
            ran = True
    return executions, first_spans


def pass_seconds(executions: dict[str, list[Execution]], pick=statistics.median) -> float:
    """Time of one pass: the sum over units of ``pick`` of their times."""
    return sum(pick([e.seconds for e in done]) for done in executions.values())


def end_to_end(units: list[Unit], executions: dict[str, list[Execution]]) -> dict:
    """The end-to-end metrics of an untraced measurement."""
    wall = pass_seconds(executions)
    ops = sum(unit.ops for unit in units)
    simulated = [e.summary["latency_s"] for done in executions.values()
                 for e in done if e.summary.get("latency_s") is not None]
    latency = statistics.median(simulated) if simulated else wall / ops
    return {
        "wall_s": wall,
        "ops_per_s": ops / wall,
        "latency_ms": 1000.0 * latency,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def median_executions(executions: dict[str, list[Execution]]) -> dict[str, Execution]:
    """Each unit's execution of median time (the lower one of an even count)."""
    chosen = {}
    for name, done in executions.items():
        ordered = sorted(done, key=lambda execution: execution.seconds)
        chosen[name] = ordered[(len(ordered) - 1) // 2]
    return chosen


def layer_metrics(units: list[Unit], chosen: dict[str, Execution],
                  trace_overhead: float) -> dict:
    """The per-layer metrics of one traced pass (see ``perf/README.md``)."""
    profiles = {unit.name: chosen[unit.name].layers for unit in units}

    def total(key: str, name: str):
        return sum(layers[key].get(name, 0) for layers in profiles.values())

    def own(unit_name: str, name: str) -> float:
        layers = profiles.get(unit_name)
        return layers["self_s"].get(name, 0.0) if layers else 0.0

    sizes = [size for layers in profiles.values() for size in layers["batch_sizes"]]
    values = {
        "serving.tenants.charge.calls": total("calls", "serving.tenants.charge"),
        "serving.tenants.charge.self_s": total("self_s", "serving.tenants.charge"),
        "serving.tenants.charge.refused": total("failed", "serving.tenants.charge"),
        "serving.tenants.refund.calls": total("calls", "serving.tenants.refund"),
        "serving.tenants.refund.self_s": total("self_s", "serving.tenants.refund"),
        "serving.service.loop_self_s": total("self_s", "serving.service.loop"),
        "serving.service.batch_size.p50":
            float(np.percentile(sizes, 50)) if sizes else 0.0,
        "serving.service.batch_size.p99":
            float(np.percentile(sizes, 99)) if sizes else 0.0,
        "serving.service.timeouts": sum(
            chosen[unit.name].summary.get("counts", {}).get("timeouts", 0)
            for unit in units),
        "mechanisms.release_many.calls": total("calls", "mechanisms.release_many"),
        "mechanisms.release_many.draws": sum(
            layers["draws"] for layers in profiles.values()),
        "mechanisms.release_many.self_s": total("self_s", "mechanisms.release_many"),
        "mechanisms.query.self_s": total("self_s", "mechanisms.query"),
    }
    for family in FAMILIES:
        values[f"testing.audit.{family}.draw_s"] = own(family, "mechanisms.release_many")
        values[f"testing.audit.{family}.estimate_s"] = own(family, "testing.audit")
    values["privacy.exact_audit.gibbs_s"] = own("gibbs-exact", "privacy.exact_audit")
    for experiment_id in EXPERIMENT_IDS:
        values[f"experiments.{experiment_id}.s"] = own(experiment_id, "experiments.case")
    values["experiments.engine.overhead_s"] = total("self_s", "experiments.engine")
    values["observability.ledger_events"] = sum(
        execution.summary["ledger_events"] for execution in chosen.values())
    values["observability.trace_overhead"] = trace_overhead
    return values


def verdict(workload: Workload, units: list[Unit], *phases) -> dict:
    """Correctness, operation counts and the outputs digest of the phases.

    Every execution of a unit must give the same digest, in every phase:
    the same seed means the same work, traced or not.
    """
    problems = list(workload.problems)
    attempted = failed = 0
    lines = []
    for unit in units:
        digests = set()
        for executions in phases:
            for execution in executions[unit.name]:
                attempted += unit.ops
                failed += execution.summary["failed"]
                problems.extend(execution.summary["problems"])
                digests.add(execution.summary["digest"])
        if len(digests) > 1:
            problems.append(f"{unit.name}: executions gave {len(digests)} "
                            "different outputs for the same inputs")
        lines.append(f"{unit.name}:{min(digests)}")
    first = {unit.name: phases[0][unit.name][0].summary for unit in units}
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "digest": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
        "problems": problems[:20],
        "counts": {name: summary["counts"] for name, summary in first.items()
                   if "counts" in summary},
    }


def run(workload_name: str, seed: int, seconds: float, *, traced: bool,
        spawned: float, first_probe: float, setup_only: bool = False,
        out: Path | None = None) -> dict:
    """Set up one workload, measure it, and return the report.

    Parameters
    ----------
    workload_name:
        A key of :data:`perf.workloads.WORKLOADS`.
    seed:
        Seed all inputs derive from.
    seconds:
        Measuring time of each phase.
    traced:
        Also run the traced phase and report per-layer metrics.
    spawned:
        ``time.monotonic()`` when the process was started; set-up time is
        measured from there.
    first_probe:
        The calibration probe taken when the process started.
    setup_only:
        Stop after set-up and report only ``setup_s``.
    out:
        Directory receiving ``TRACE_<workload>.json`` in a traced run.
    """
    workload = WORKLOADS[workload_name][1](seed)
    workload.warm_up()
    setup_s = (time.monotonic() - spawned) * calibration.scale(
        first_probe, calibration.probe())
    if setup_only:
        return {"setup_s": setup_s}
    units = workload.units()
    untraced, _ = measure(workload, units, seconds)
    report = {"setup_s": setup_s}
    details = {name: {"executions": len(done),
                      "median_s": statistics.median(e.seconds for e in done),
                      "median_wall_s": statistics.median(e.raw_seconds for e in done)}
               for name, done in untraced.items()}
    if not traced:
        report.update(verdict(workload, units, untraced))
        report["metrics"] = end_to_end(units, untraced)
        report["details"] = details
        return report
    traced_runs, first_spans = measure(workload, units, seconds, traced=True)
    report.update(verdict(workload, units, untraced, traced_runs))
    chosen = median_executions(traced_runs)
    traced_wall = sum(execution.seconds for execution in chosen.values())
    untraced_wall = pass_seconds(untraced, statistics.median_low)
    folded = sum(sum(execution.layers["self_s"].values())
                 for execution in chosen.values())
    report["metrics"] = layer_metrics(units, chosen, traced_wall / untraced_wall - 1.0)
    report["details"] = {"untraced": details, "traced_wall_s": traced_wall,
                         "untraced_wall_s": untraced_wall,
                         "folded_self_s": folded}
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        trace = {
            "workload": workload_name,
            "seed": seed,
            "traced_wall_s": traced_wall,
            "untraced_wall_s": untraced_wall,
            "self_s": {name: execution.layers["self_s"]
                       for name, execution in chosen.items()},
            "spans": {name: columns(spans) for name, spans in first_spans.items()},
        }
        (out / f"TRACE_{workload_name}.json").write_text(json.dumps(trace) + "\n")
    return report
