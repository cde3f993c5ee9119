"""Experiment harness: sweeps, the benchmark engine, tables, ASCII curves.

The benchmarks in ``benchmarks/`` use these helpers to print the
rows/series each experiment reports (EXPERIMENTS.md records the outputs).
``repro bench`` drives the same bench files through
:class:`~repro.experiments.engine.BenchmarkEngine` — a parallel, cached,
fault-tolerant executor that writes machine-readable ``BENCH_<id>.json``
manifests (see docs/BENCHMARKS.md).
"""

from repro.experiments.cache import ResultCache, canonical_parameters, code_digest
from repro.experiments.engine import (
    BenchmarkEngine,
    BenchSpec,
    load_bench_spec,
    select_experiments,
)
from repro.experiments.manifest import (
    BENCH_SCHEMA_VERSION,
    ConfigurationRecord,
    RunManifest,
    load_manifest,
)
from repro.experiments.plotting import ascii_curve
from repro.experiments.registry import (
    EXPERIMENTS,
    Experiment,
    experiment_span,
    get_experiment,
)
from repro.experiments.runner import (
    ExperimentResult,
    expand_grid,
    reseed,
    run_configurations,
    run_experiment,
    sweep,
)
from repro.experiments.tables import ResultTable

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchSpec",
    "BenchmarkEngine",
    "ConfigurationRecord",
    "EXPERIMENTS",
    "Experiment",
    "ExperimentResult",
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
    "run_experiment",
    "select_experiments",
    "sweep",
]
