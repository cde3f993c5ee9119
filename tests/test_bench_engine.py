"""Unit tests for the benchmark engine: runner backends, cache, manifests.

The configuration functions below are module-level on purpose — the
process-pool backend pickles them, so the parallel tests double as a check
that the public contract ("cases must be module-level") actually suffices.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.exceptions import ValidationError
from repro.experiments import (
    BENCH_SCHEMA_VERSION,
    BenchSpec,
    BenchmarkEngine,
    EXPERIMENTS,
    ResultCache,
    RunManifest,
    canonical_parameters,
    code_digest,
    expand_grid,
    get_experiment,
    load_bench_spec,
    load_manifest,
    reseed,
    run_configurations,
    select_experiments,
)
from repro.experiments import engine as engine_module
from repro.experiments.manifest import ConfigurationRecord
from repro.experiments.registry import Experiment


def _affine(x, scale=1, offset=0):
    return {"y": x * scale + offset}


def _always_boom(x):
    raise RuntimeError("boom")


def _boom_or_not_a_mapping(x):
    if x == 1:
        raise RuntimeError("boom")
    return 42


def _fake_experiment(tmp_path, source_text="case v1\n"):
    """A registry-shaped experiment whose code digest we fully control."""
    source = tmp_path / "bench_fake.py"
    source.write_text(source_text)
    experiment = Experiment(
        "TX", "synthetic test experiment", "benchmarks/bench_fake.py"
    )
    spec = BenchSpec(
        case=_affine,
        grid={"x": [1, 2, 3]},
        fixed={"scale": 10},
        source=str(source),
    )
    return experiment, spec, source


class TestReseed:
    def test_attempt_zero_is_identity(self):
        assert reseed(42, 0) == 42

    def test_deterministic(self):
        assert reseed(42, 3) == reseed(42, 3)

    def test_attempts_diverge(self):
        derived = {reseed(42, attempt) for attempt in range(5)}
        assert len(derived) == 5

    def test_seeds_diverge(self):
        assert reseed(1, 1) != reseed(2, 1)


class TestExpandGrid:
    def test_grid_order_is_cartesian_product_order(self):
        configurations = expand_grid({"a": [1, 2], "b": [10, 20]}, {"c": 5})
        assert configurations == [
            {"a": 1, "b": 10, "c": 5},
            {"a": 1, "b": 20, "c": 5},
            {"a": 2, "b": 10, "c": 5},
            {"a": 2, "b": 20, "c": 5},
        ]

    def test_empty_value_sequence_rejected(self):
        # Regression: this used to silently produce zero configurations.
        with pytest.raises(ValidationError, match="non-empty"):
            expand_grid({"a": [1], "b": []})

    def test_overlap_rejected_before_expansion(self):
        with pytest.raises(ValidationError, match="swept and fixed"):
            expand_grid({"a": [1, 2]}, {"a": 3})


class TestRunConfigurations:
    def test_parallel_matches_serial_in_order(self):
        configurations = expand_grid({"x": list(range(6))}, {"scale": 3})
        serial = run_configurations("t", _affine, configurations, workers=1)
        pooled = run_configurations("t", _affine, configurations, workers=3)
        assert [r.outputs for r in serial] == [r.outputs for r in pooled]
        assert [r.parameters for r in serial] == [r.parameters for r in pooled]
        assert [r.outputs["y"] for r in pooled] == [0, 3, 6, 9, 12, 15]

    def test_pooled_records_worker_pids(self):
        results = run_configurations(
            "t", _affine, [{"x": 1}, {"x": 2}], workers=2
        )
        assert all(isinstance(r.worker, int) for r in results)

    def test_empty_configurations(self):
        assert run_configurations("t", _affine, []) == []

    @pytest.mark.parametrize("kwargs", [{"workers": 0}])
    def test_invalid_arguments_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            run_configurations("t", _affine, [{"x": 1}], **kwargs)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_on_error_record_keeps_going(self, workers):
        records = run_configurations(
            "t",
            _boom_or_not_a_mapping,
            [{"x": 1}, {"x": 2}],
            workers=workers,
        )
        assert [r.parameters for r in records] == [{"x": 1}, {"x": 2}]
        for record in records:
            assert not record.ok
            assert record.outputs == {}
        assert "RuntimeError: boom" in records[0].error
        assert "ValidationError" in records[1].error
        assert "must return a mapping" in records[1].error



class TestSweep:
    """A grid sweep is ``expand_grid`` followed by ``run_configurations``."""

    def test_parallel_sweep_matches_serial(self):
        configurations = expand_grid({"x": [1, 2, 3, 4]}, {"scale": 2})
        serial = run_configurations("t", _affine, configurations)
        pooled = run_configurations("t", _affine, configurations, workers=2)
        assert [r.outputs for r in serial] == [r.outputs for r in pooled]

    def test_closures_still_work_serially(self):
        offset = 100
        records = run_configurations(
            "t", lambda x: {"y": x + offset}, expand_grid({"x": [1, 2]})
        )
        assert [r.outputs["y"] for r in records] == [101, 102]

    def test_empty_value_sequence_rejected(self):
        with pytest.raises(ValidationError, match="non-empty"):
            expand_grid({"x": []})

class TestCanonicalParameters:
    def test_sorted_and_compact(self):
        assert canonical_parameters({"b": 2, "a": 1}) == '{"a":1,"b":2}'

    def test_numpy_scalars_coerced(self):
        a = canonical_parameters({"x": np.float64(1.5), "k": np.int64(3)})
        b = canonical_parameters({"x": 1.5, "k": 3})
        assert a == b

    def test_non_mapping_rejected(self):
        with pytest.raises(ValidationError):
            canonical_parameters([1, 2])


def _package_tree(root):
    """A small package tree with a nested module, under ``root``."""
    (root / "pkg" / "information").mkdir(parents=True)
    (root / "pkg" / "__init__.py").write_text("")
    (root / "pkg" / "information" / "__init__.py").write_text("")
    (root / "pkg" / "information" / "solver.py").write_text("VALUE = 1\n")
    (root / "pkg" / "information" / "notes.txt").write_text("not source")
    return root / "pkg"


class TestCodeDigest:
    def test_stable_for_unchanged_sources(self, tmp_path):
        experiments_dir = Path(repro.__file__).parent / "experiments"
        assert code_digest([experiments_dir]) == code_digest([experiments_dir])
        # Same source elsewhere, differing only in a non-Python file.
        first = _package_tree(tmp_path / "a")
        second = _package_tree(tmp_path / "b")
        (second / "information" / "notes.txt").write_text("edited")
        assert code_digest([first]) == code_digest([second])

    def test_changes_with_extra_file_content(self, tmp_path):
        path = tmp_path / "bench.py"
        path.write_text("v1")
        before = code_digest([tmp_path])
        path.write_text("v2")
        assert code_digest([tmp_path]) != before

    def test_nested_module_change_changes_digest(self, tmp_path):
        package = _package_tree(tmp_path)
        before = code_digest([package])
        (package / "information" / "solver.py").write_text("VALUE = 2\n")
        assert code_digest([package]) != before

    def test_different_module_sets_differ(self):
        package_dir = Path(repro.__file__).parent
        assert code_digest([package_dir / "experiments"]) != code_digest(
            [package_dir / "information"]
        )

    def test_missing_module_tolerated(self, tmp_path):
        digest = code_digest([tmp_path / "no" / "such" / "root"])
        assert len(digest) == 64


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = cache.key("E1", {"x": 1}, "d" * 64)
        assert cache.get(key) is None
        cache.put(key, {"outputs": {"y": 2.0}, "seconds": 0.1})
        assert cache.get(key)["outputs"] == {"y": 2.0}
        assert len(cache) == 1

    def test_key_sensitive_to_all_triple_parts(self, tmp_path):
        cache = ResultCache(tmp_path)
        base = cache.key("E1", {"x": 1}, "d1")
        assert cache.key("E2", {"x": 1}, "d1") != base
        assert cache.key("E1", {"x": 2}, "d1") != base
        assert cache.key("E1", {"x": 1}, "d2") != base
        assert cache.key("E1", {"x": np.int64(1)}, "d1") == base

    def test_corrupt_entry_treated_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key("E1", {"x": 1}, "d")
        cache.put(key, {"outputs": {}})
        (tmp_path / key[:2] / f"{key}.json").write_text("{not json")
        assert cache.get(key) is None

    def test_payload_without_outputs_rejected(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(ValidationError):
            cache.put("a" * 64, {"seconds": 1.0})


class TestManifest:
    def _manifest(self):
        return RunManifest(
            experiment_id="TX",
            claim="c",
            bench="b.py",
            code_digest="d" * 64,
            workers=2,
            cache_enabled=True,
            records=[
                ConfigurationRecord({"x": 1}, {"y": 2.0}, 0.5, worker=11),
                ConfigurationRecord({"x": 2}, {"y": 4.0}, 0.0, cache_hit=True),
                ConfigurationRecord({"x": 3}, {}, 0.0, error="boom"),
            ],
        )

    def test_summary_properties(self):
        manifest = self._manifest()
        assert manifest.cache_hits == 1
        assert manifest.failures == 1
        assert manifest.executed_seconds == pytest.approx(0.5)

    def test_write_load_round_trip(self, tmp_path):
        manifest = self._manifest()
        path = manifest.write(tmp_path)
        assert path.name == "BENCH_TX.json"
        loaded = load_manifest(path)
        assert loaded.to_dict() == manifest.to_dict()

    def test_schema_version_stamped(self, tmp_path):
        path = self._manifest().write(tmp_path)
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == BENCH_SCHEMA_VERSION
        assert payload["summary"]["configurations"] == 3

    def test_unknown_schema_version_rejected(self):
        payload = self._manifest().to_dict()
        payload["schema_version"] = 99
        with pytest.raises(ValidationError, match="schema version"):
            RunManifest.from_dict(payload)

    def test_record_missing_keys_rejected(self):
        with pytest.raises(ValidationError, match="missing keys"):
            ConfigurationRecord.from_dict({"parameters": {}, "outputs": {}})


class TestBenchmarkEngine:
    def test_second_run_is_all_cache_hits(self, tmp_path):
        experiment, spec, _ = _fake_experiment(tmp_path)
        cache = ResultCache(tmp_path / "cache")
        engine = BenchmarkEngine(cache=cache, output_dir=tmp_path / "out")
        first = engine.run_experiment(experiment, spec=spec)
        assert first.cache_hits == 0
        assert first.failures == 0
        second = engine.run_experiment(experiment, spec=spec)
        assert second.cache_hits == len(second.records) == 3
        assert [r.outputs for r in first.records] == [
            r.outputs for r in second.records
        ]

    def test_code_change_invalidates_cache(self, tmp_path):
        experiment, spec, source = _fake_experiment(tmp_path)
        cache = ResultCache(tmp_path / "cache")
        first = BenchmarkEngine(cache=cache).run_experiment(experiment, spec=spec)
        source.write_text("case v2\n")
        # The digest is fixed for an engine's lifetime: a fresh engine sees
        # the edit.
        second = BenchmarkEngine(cache=cache).run_experiment(experiment, spec=spec)
        assert second.cache_hits == 0
        assert second.code_digest != first.code_digest

    def test_digest_covers_the_whole_package(self, tmp_path, monkeypatch):
        # E9's bound comes from information/blahut_arimoto.py; a digest of
        # a hand-picked module list once left that file out, so a warm
        # cache kept serving results computed by older solver code.
        seen = []

        def recording_digest(roots):
            roots = [Path(root) for root in roots]
            seen.append(roots)
            return code_digest(roots)

        monkeypatch.setattr(engine_module, "code_digest", recording_digest)
        experiment = get_experiment("E9")
        spec = load_bench_spec(experiment)
        spec = dataclasses.replace(
            spec, grid={name: list(values)[:1] for name, values in spec.grid.items()}
        )
        engine = BenchmarkEngine(cache=ResultCache(tmp_path / "cache"))
        first = engine.run_experiment(experiment, spec=spec)
        second = engine.run_experiment(experiment, spec=spec)
        (roots,) = seen  # computed once per engine and bench directory
        package_dir = Path(repro.__file__).resolve().parent
        assert package_dir in roots
        assert Path(spec.source).resolve().parent in roots
        assert package_dir / "information" / "blahut_arimoto.py" in set(
            package_dir.rglob("*.py")
        )
        assert first.code_digest == second.code_digest == code_digest(roots)
        assert first.failures == 0
        assert second.cache_hits == len(second.records)

    def test_parallel_engine_matches_serial(self, tmp_path):
        experiment, spec, _ = _fake_experiment(tmp_path)
        serial = BenchmarkEngine(workers=1).run_experiment(experiment, spec=spec)
        pooled = BenchmarkEngine(workers=2).run_experiment(experiment, spec=spec)
        assert [r.outputs for r in serial.records] == [
            r.outputs for r in pooled.records
        ]
        assert [r.outputs["y"] for r in pooled.records] == [10, 20, 30]

    def test_failures_recorded_and_not_cached(self, tmp_path):
        experiment, spec, _ = _fake_experiment(tmp_path)
        spec = BenchSpec(
            case=_always_boom,
            grid=spec.grid,
            source=spec.source,
        )
        cache = ResultCache(tmp_path / "cache")
        engine = BenchmarkEngine(cache=cache, output_dir=tmp_path / "out")
        manifest = engine.run_experiment(experiment, spec=spec)
        assert manifest.failures == 3
        assert len(cache) == 0
        # The manifest is still written, with the errors on record.
        loaded = load_manifest(tmp_path / "out" / "BENCH_TX.json")
        assert all("boom" in record.error for record in loaded.records)

    def test_manifest_metadata(self, tmp_path):
        experiment, spec, _ = _fake_experiment(tmp_path)
        manifest = BenchmarkEngine().run_experiment(experiment, spec=spec)
        assert manifest.experiment_id == "TX"
        assert manifest.cache_enabled is False
        assert manifest.total_seconds > 0
        assert all(record.seconds >= 0 for record in manifest.records)

    @pytest.mark.parametrize("kwargs", [{"workers": 0}])
    def test_invalid_engine_arguments(self, kwargs):
        with pytest.raises(ValidationError):
            BenchmarkEngine(**kwargs)


class TestSelectExperiments:
    def test_default_is_full_registry(self):
        assert select_experiments() == list(EXPERIMENTS)

    def test_glob_selects_range(self):
        selected = select_experiments(["E1?"])
        assert [e.id for e in selected] == [
            "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17",
            "E18", "E19",
        ]

    def test_case_insensitive_id(self):
        assert [e.id for e in select_experiments(["e4"])] == ["E4"]

    def test_registry_order_preserved(self):
        selected = select_experiments(["E9", "E2"])
        assert [e.id for e in selected] == ["E2", "E9"]

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValidationError, match="no experiment matches"):
            select_experiments(["E99"])


class TestRegisteredBenchSpecs:
    @pytest.mark.parametrize("experiment", EXPERIMENTS, ids=lambda e: e.id)
    def test_every_experiment_has_a_valid_spec(self, experiment):
        spec = load_bench_spec(experiment)
        # The case must survive pickling for the process-pool backend.
        assert pickle.loads(pickle.dumps(spec.case)) is spec.case
        configurations = expand_grid(spec.grid, spec.fixed)
        assert configurations
        if spec.seed_param is not None:
            assert all(spec.seed_param in c for c in configurations)
        assert spec.source and spec.source.endswith(
            experiment.bench.rsplit("/", 1)[-1]
        )

    def test_bench_runs_from_outside_the_repository(self, tmp_path):
        """``repro bench`` finds the bench files from any working directory."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-m", "repro", "bench", "E1", "--no-cache",
             "--output-dir", "out"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        manifest = load_manifest(tmp_path / "out" / "BENCH_E1.json")
        assert manifest.experiment_id == "E1"
        assert manifest.failures == 0

    def test_spawned_pool_runs_from_outside_the_repository(self, tmp_path):
        """Pool workers started by ``spawn`` import the bench cases by name."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        script = (
            "import multiprocessing\n"
            "from repro.experiments import BenchmarkEngine, get_experiment\n"
            "multiprocessing.set_start_method('spawn')\n"
            "manifest = BenchmarkEngine(workers=2).run_experiment(\n"
            "    get_experiment('E1'))\n"
            "print(manifest.failures, len(manifest.records))\n"
            "for record in manifest.records:\n"
            "    print(record.error)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        failures, records = result.stdout.split("\n", 1)[0].split()
        assert failures == "0", result.stdout
        assert int(records) > 1
