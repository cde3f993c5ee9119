"""Experiment runner: one configuration list, run serially or on a process pool.

The execution core of the benchmark engine (see
:mod:`repro.experiments.engine`). :func:`run_configurations` runs the
configurations either in-process (``workers=1`` — closures and lambdas
welcome) or on a ``ProcessPoolExecutor``. A configuration that raises is
recorded with its error and the run goes on. Results always come back in
input order regardless of completion order, so parallel runs are
output-identical to serial ones.
"""

from __future__ import annotations

import itertools
import os
import time
from collections.abc import Callable, Mapping, Sequence
from concurrent.futures import ProcessPoolExecutor

from repro.exceptions import ValidationError
from repro.experiments.manifest import ConfigurationRecord
from repro.observability import tracer as _trace

__all__ = ["expand_grid", "run_configurations"]


def _invoke(fn: Callable[..., Mapping], parameters: Mapping) -> tuple:
    """Execute one configuration; returns ``(outputs, seconds, worker pid)``.

    Top-level so it pickles for the process-pool backend.
    """
    start = time.perf_counter()
    outputs = fn(**parameters)
    seconds = time.perf_counter() - start
    if not isinstance(outputs, Mapping):
        raise ValidationError("experiment functions must return a mapping")
    return dict(outputs), seconds, os.getpid()


def expand_grid(grid: Mapping[str, Sequence], fixed: Mapping | None = None) -> list[dict]:
    """Expand a parameter grid into its list of configurations.

    Parameters
    ----------
    grid:
        Mapping from parameter name to a non-empty sequence of values.
    fixed:
        Parameters held constant; merged into every configuration. Must
        not overlap the swept names.
    """
    if not isinstance(grid, Mapping) or not grid:
        raise ValidationError("grid must be a non-empty mapping")
    empty = sorted(k for k, values in grid.items() if len(list(values)) == 0)
    if empty:
        raise ValidationError(
            f"grid values must be non-empty sequences; empty: {empty}"
        )
    fixed = dict(fixed or {})
    overlap = set(grid) & set(fixed)
    if overlap:
        raise ValidationError(f"parameters swept and fixed: {sorted(overlap)}")
    names = list(grid)
    configurations = []
    for combo in itertools.product(*(grid[k] for k in names)):
        parameters = dict(zip(names, combo))
        parameters.update(fixed)
        configurations.append(parameters)
    return configurations


def _failure(parameters: Mapping, error: BaseException) -> ConfigurationRecord:
    return ConfigurationRecord(
        parameters=dict(parameters),
        outputs={},
        seconds=0.0,
        error=f"{type(error).__name__}: {error}",
    )


def _traced_invoke(
    name: str, fn: Callable[..., Mapping], parameters: Mapping
) -> tuple:
    """``_invoke`` under a per-configuration span with a trace delta.

    Returns ``(outputs, seconds, worker, trace_summary)`` where the last
    element is ``None`` when tracing is disabled, else a small dict of the
    ledger events, spans, and mechanism releases this configuration alone
    produced (computed as before/after deltas on the active tracer).
    ``mechanism_releases`` counts individual draws: a batched
    ``release_many(d, n)`` call contributes ``n`` (one aggregated ledger
    event with ``count == n``), exactly like ``n`` single releases.
    """
    tracer = _trace.current()
    if tracer is None:
        return (*_invoke(fn, parameters), None)
    events_before = len(tracer.events)
    spans_before = len(tracer.spans)
    releases_before = tracer.metrics.counter("mechanism.releases")
    with tracer.span(f"config:{name}"):
        outputs, seconds, worker = _invoke(fn, parameters)
    summary = {
        "seconds": seconds,
        "ledger_events": len(tracer.events) - events_before,
        "spans": len(tracer.spans) - spans_before - 1,  # minus our own
        "mechanism_releases": tracer.metrics.counter("mechanism.releases")
        - releases_before,
    }
    return outputs, seconds, worker, summary


def _run_serial(
    name: str, fn: Callable[..., Mapping], configurations: Sequence[Mapping]
) -> list[ConfigurationRecord]:
    records = []
    for parameters in configurations:
        try:
            outputs, seconds, worker, trace = _traced_invoke(name, fn, parameters)
        except Exception as error:
            records.append(_failure(parameters, error))
            continue
        records.append(
            ConfigurationRecord(
                dict(parameters), outputs, seconds, worker=worker, trace=trace
            )
        )
    return records


def _register_benchmarks() -> None:
    """Pool-worker initializer: make ``benchmarks.*`` importable by name.

    The engine registers the repository's ``benchmarks`` package by path,
    and a worker started by ``spawn`` or ``forkserver`` does not inherit
    it; the bench cases it is sent are pickled by that module name.
    """
    from repro.experiments import engine

    engine._register_bench_package(engine._REPO_ROOT / "benchmarks")


def _run_pooled(
    fn: Callable[..., Mapping], configurations: Sequence[Mapping], workers: int
) -> list[ConfigurationRecord]:
    records = []
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_register_benchmarks
    ) as executor:
        futures = [executor.submit(_invoke, fn, dict(c)) for c in configurations]
        # Resolve strictly in submission order so the returned list is
        # deterministic no matter which worker finishes first.
        for parameters, future in zip(configurations, futures):
            try:
                outputs, seconds, worker = future.result()
            except Exception as error:
                records.append(_failure(parameters, error))
                continue
            records.append(
                ConfigurationRecord(dict(parameters), outputs, seconds, worker=worker)
            )
    return records


def run_configurations(
    name: str,
    fn: Callable[..., Mapping],
    configurations: Sequence[Mapping],
    *,
    workers: int = 1,
) -> list[ConfigurationRecord]:
    """Run configurations in order; one record each, failures included.

    Parameters
    ----------
    name:
        Label of the per-configuration trace span.
    fn:
        Experiment function mapping keyword parameters to an output
        mapping. Must be picklable (a module-level function) when
        ``workers > 1``.
    configurations:
        The parameter dicts to run, in the order results are wanted.
    workers:
        Process-pool size. ``1`` runs in-process.

    Notes
    -----
    A configuration that raises, or returns something other than a
    mapping, yields a record with empty outputs and the error message in
    ``error``; the remaining configurations still run.

    When a tracer is active (:mod:`repro.observability`) the in-process
    serial backend records a per-configuration span and a trace summary in
    ``trace``. Pooled workers are separate processes that cannot report
    into the parent's tracer, so pooled records carry no trace summary —
    by design, rather than silently-empty numbers.
    """
    if workers < 1:
        raise ValidationError("workers must be >= 1")
    if not configurations:
        return []
    if workers == 1:
        return _run_serial(name, fn, configurations)
    return _run_pooled(fn, configurations, workers)
