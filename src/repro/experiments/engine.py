"""The benchmark engine: cached, optionally parallel experiment runs.

Each registered experiment's bench file (``benchmarks/bench_e*.py``)
exports a ``BENCH_SPEC`` — a picklable ``case`` function plus the
parameter ``grid``/``fixed`` values it sweeps. :class:`BenchmarkEngine`
expands the grid, serves completed configurations from the
content-addressed :class:`~repro.experiments.cache.ResultCache` (keyed by
experiment id + canonical parameters + a digest of all the ``repro`` and
bench source), runs the misses through
:func:`~repro.experiments.runner.run_configurations`, and records
everything in a :class:`~repro.experiments.manifest.RunManifest` written
as ``BENCH_<id>.json``. Parallel runs return results in grid order,
bit-identical to serial runs.
"""

from __future__ import annotations

import fnmatch
import importlib
import importlib.util
import sys
import time
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import ValidationError
from repro.experiments.cache import ResultCache, code_digest
from repro.observability import tracer as _trace
from repro.experiments.manifest import ConfigurationRecord, RunManifest
from repro.experiments.registry import EXPERIMENTS, Experiment
from repro.experiments.runner import expand_grid, run_configurations

__all__ = [
    "BenchSpec",
    "BenchmarkEngine",
    "load_bench_spec",
    "select_experiments",
]

#: The ``repro`` package directory, the first root of every code digest.
_PACKAGE_DIR = Path(__file__).resolve().parent.parent
#: The repository root, which the registry's ``bench`` paths are relative to.
_REPO_ROOT = _PACKAGE_DIR.parent.parent


@dataclass(frozen=True)
class BenchSpec:
    """A bench module's engine entry point.

    Parameters
    ----------
    case:
        Module-level function running one configuration; returns a
        mapping of JSON-serializable outputs. Must be picklable.
    grid:
        Parameter name -> sequence of values to sweep.
    fixed:
        Parameters held constant across the sweep.
    seed_param:
        Optional name of the integer seed parameter, for callers that
        re-derive seeds (``perf/`` runs the sweep at other seeds).
    source:
        Path of the bench file the spec was loaded from; its directory is
        folded into the code digest, when known.
    """

    case: Callable[..., Mapping]
    grid: Mapping[str, Sequence]
    fixed: Mapping = field(default_factory=dict)
    seed_param: str | None = None
    source: str | None = None


def _register_bench_package(package_dir: Path) -> None:
    """Load the package at ``package_dir`` by path, under its directory's
    name, unless a module of that name is loaded already.

    Its modules then import by name from any working directory, and so do
    their own ``from benchmarks.common import …`` lines. Without an
    ``__init__.py`` there nothing is registered.
    """
    name = package_dir.name
    init = package_dir / "__init__.py"
    if name in sys.modules or not init.is_file():
        return
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(package_dir)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise


def load_bench_spec(experiment: Experiment) -> BenchSpec:
    """Import an experiment's bench module and validate its ``BENCH_SPEC``.

    Parameters
    ----------
    experiment:
        Registry entry whose ``bench`` file names the module to import
        (``benchmarks/bench_e4_gibbs_privacy.py`` ->
        ``benchmarks.bench_e4_gibbs_privacy``). The ``benchmarks``
        package is loaded from the repository root, whatever the working
        directory.
    """
    bench = Path(experiment.bench)
    _register_bench_package((_REPO_ROOT / bench).parent)
    module_name = f"{bench.parent.name}.{bench.stem}"
    try:
        module = importlib.import_module(module_name)
    except ImportError as error:
        raise ValidationError(
            f"cannot import bench module {module_name!r} for "
            f"{experiment.id}: {error}"
        ) from error
    raw = getattr(module, "BENCH_SPEC", None)
    if raw is None:
        raise ValidationError(f"{module_name} defines no BENCH_SPEC")
    if not isinstance(raw, Mapping):
        raise ValidationError(f"{module_name}.BENCH_SPEC must be a mapping")
    case = raw.get("case")
    if not callable(case):
        raise ValidationError(f"{module_name}.BENCH_SPEC['case'] must be callable")
    grid = raw.get("grid")
    if not isinstance(grid, Mapping) or not grid:
        raise ValidationError(
            f"{module_name}.BENCH_SPEC['grid'] must be a non-empty mapping"
        )
    fixed = raw.get("fixed", {})
    if not isinstance(fixed, Mapping):
        raise ValidationError(f"{module_name}.BENCH_SPEC['fixed'] must be a mapping")
    seed_param = raw.get("seed_param")
    if seed_param is not None and not isinstance(seed_param, str):
        raise ValidationError(
            f"{module_name}.BENCH_SPEC['seed_param'] must be a string"
        )
    return BenchSpec(
        case=case,
        grid=grid,
        fixed=fixed,
        seed_param=seed_param,
        source=getattr(module, "__file__", None),
    )


def select_experiments(patterns: Sequence[str] = ()) -> list[Experiment]:
    """Resolve id/glob patterns against the registry, preserving its order.

    Parameters
    ----------
    patterns:
        Case-insensitive experiment ids or globs (``"E4"``, ``"e1?"``,
        ``"E*"``). Empty selects every registered experiment. A pattern
        matching nothing raises :class:`~repro.exceptions.ValidationError`.
    """
    if not patterns:
        return list(EXPERIMENTS)
    wanted: set[str] = set()
    for pattern in patterns:
        matches = {
            experiment.id
            for experiment in EXPERIMENTS
            if fnmatch.fnmatchcase(experiment.id.upper(), str(pattern).strip().upper())
        }
        if not matches:
            raise ValidationError(
                f"no experiment matches {pattern!r}; known ids: "
                + ", ".join(e.id for e in EXPERIMENTS)
            )
        wanted |= matches
    return [experiment for experiment in EXPERIMENTS if experiment.id in wanted]


class BenchmarkEngine:
    """Cached executor for the registered benchmark experiments.

    Parameters
    ----------
    workers:
        Process-pool size per experiment sweep (1 = in-process serial).
    cache:
        A :class:`ResultCache`, or ``None`` to disable caching.
    output_dir:
        Directory receiving ``BENCH_<id>.json`` manifests, or ``None`` to
        skip writing.

    Notes
    -----
    The code digest is computed once per bench directory and then fixed
    for the engine's lifetime: source edited mid-run is seen by the next
    engine, not this one.
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        cache: ResultCache | None = None,
        output_dir=None,
    ) -> None:
        if workers < 1:
            raise ValidationError("workers must be >= 1")
        self.workers = int(workers)
        self.cache = cache
        self.output_dir = Path(output_dir) if output_dir is not None else None
        self._digests: dict[Path | None, str] = {}

    def _code_digest(self, spec: BenchSpec) -> str:
        """The digest of the package and ``spec``'s bench directory (memoized)."""
        bench_dir = Path(spec.source).resolve().parent if spec.source else None
        if bench_dir not in self._digests:
            roots = [_PACKAGE_DIR, bench_dir] if bench_dir else [_PACKAGE_DIR]
            self._digests[bench_dir] = code_digest(roots)
        return self._digests[bench_dir]

    def run_experiment(
        self, experiment: Experiment, spec: BenchSpec | None = None
    ) -> RunManifest:
        """Run one experiment's sweep and return its manifest.

        Parameters
        ----------
        experiment:
            The registry entry to run.
        spec:
            Explicit :class:`BenchSpec` override; by default the spec is
            loaded from the experiment's bench module.
        """
        with _trace.span(f"experiment:{experiment.id}", workers=self.workers):
            return self._run_experiment(experiment, spec)

    def _run_experiment(
        self, experiment: Experiment, spec: BenchSpec | None
    ) -> RunManifest:
        """The sweep body of :meth:`run_experiment` (span applied outside)."""
        started = time.perf_counter()
        if spec is None:
            spec = load_bench_spec(experiment)
        digest = self._code_digest(spec)
        configurations = expand_grid(spec.grid, spec.fixed)

        records: list[ConfigurationRecord | None] = [None] * len(configurations)
        keys: list[str | None] = [None] * len(configurations)
        missing: list[int] = []
        for index, parameters in enumerate(configurations):
            if self.cache is not None:
                keys[index] = self.cache.key(experiment.id, parameters, digest)
                payload = self.cache.get(keys[index])
                if payload is not None:
                    records[index] = ConfigurationRecord(
                        parameters=dict(payload.get("parameters", parameters)),
                        outputs=dict(payload["outputs"]),
                        seconds=float(payload.get("seconds", 0.0)),
                        worker=payload.get("worker"),
                        cache_hit=True,
                    )
                    continue
            missing.append(index)

        fresh = run_configurations(
            experiment.id,
            spec.case,
            [configurations[index] for index in missing],
            workers=self.workers,
        )
        for index, record in zip(missing, fresh):
            records[index] = record
            if self.cache is not None and record.ok:
                self.cache.put(
                    keys[index],
                    {
                        "experiment": experiment.id,
                        "parameters": record.parameters,
                        "outputs": record.outputs,
                        "seconds": record.seconds,
                        "worker": record.worker,
                    },
                )

        manifest = RunManifest(
            experiment_id=experiment.id,
            claim=experiment.claim,
            bench=experiment.bench,
            code_digest=digest,
            workers=self.workers,
            cache_enabled=self.cache is not None,
            total_seconds=time.perf_counter() - started,
            records=records,
        )
        if self.output_dir is not None:
            manifest.write(self.output_dir)
        return manifest
