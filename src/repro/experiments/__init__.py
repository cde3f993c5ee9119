"""Experiment harness: sweeps, the benchmark engine, tables, ASCII curves.

The benchmarks in ``benchmarks/`` use these helpers to print the
rows/series each experiment reports (EXPERIMENTS.md records the outputs).
``repro bench`` drives the same bench files through
:class:`~repro.experiments.engine.BenchmarkEngine` — a cached executor,
serial or on a process pool, that records a failing configuration and
goes on, and writes machine-readable ``BENCH_<id>.json`` manifests (see
docs/BENCHMARKS.md).
"""

from repro._lazy import attach as _attach

_EXPORTS = {
    "ResultCache": "repro.experiments.cache",
    "canonical_parameters": "repro.experiments.cache",
    "code_digest": "repro.experiments.cache",
    "BenchmarkEngine": "repro.experiments.engine",
    "BenchSpec": "repro.experiments.engine",
    "load_bench_spec": "repro.experiments.engine",
    "select_experiments": "repro.experiments.engine",
    "BENCH_SCHEMA_VERSION": "repro.experiments.manifest",
    "ConfigurationRecord": "repro.experiments.manifest",
    "RunManifest": "repro.experiments.manifest",
    "load_manifest": "repro.experiments.manifest",
    "ascii_curve": "repro.experiments.plotting",
    "EXPERIMENTS": "repro.experiments.registry",
    "Experiment": "repro.experiments.registry",
    "experiment_span": "repro.experiments.registry",
    "get_experiment": "repro.experiments.registry",
    "expand_grid": "repro.experiments.runner",
    "reseed": "repro.utils.seeds",
    "run_configurations": "repro.experiments.runner",
    "ResultTable": "repro.experiments.tables",
}

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchSpec",
    "BenchmarkEngine",
    "ConfigurationRecord",
    "EXPERIMENTS",
    "Experiment",
    "ResultCache",
    "ResultTable",
    "RunManifest",
    "ascii_curve",
    "canonical_parameters",
    "code_digest",
    "expand_grid",
    "experiment_span",
    "get_experiment",
    "load_bench_spec",
    "load_manifest",
    "reseed",
    "run_configurations",
    "select_experiments",
]

__getattr__, __dir__ = _attach(__name__, _EXPORTS)
