"""Self-tests of the benchmark on scaled-down workloads.

Run from the repository root: ``python -m pytest perf/tests -q``.
"""

from __future__ import annotations

import re
import time

import pytest

from perf import load_benchmark
from perf.compare import judge
from perf.harness import (
    end_to_end,
    layer_metrics,
    measure,
    median_executions,
    verdict,
)
from perf.trace import Recorder, Span, self_times
from perf.workloads import WORKLOADS, AuditWorkload, PaperWorkload, ServeWorkload

BENCHMARK = load_benchmark()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def small_churn(seed):
    return ServeWorkload("serve_churn", seed, clients=128, requests=8,
                         budget=0.3, request_timeout=0.03)


def small_audit(seed, cls=AuditWorkload):
    return cls(seed, samples=400, families=("laplace", "langevin"))


def small_paper(seed):
    return PaperWorkload(seed, experiments=("E4", "E8"))


def once(workload, *, traced=False):
    """Every unit executed exactly once; returns (units, executions)."""
    units = workload.units()
    executions, _ = measure(workload, units, 0.0, traced=traced)
    return units, executions


def checked(workload):
    """The verdict on one execution of every unit."""
    return verdict(workload, *once(workload))


@pytest.mark.parametrize("build", [small_churn, small_audit, small_paper])
def test_same_seed_same_outputs_other_seed_other_outputs(build):
    a, b, c = checked(build(3)), checked(build(3)), checked(build(4))
    assert a["correct"] and b["correct"] and c["correct"], (a, b, c)
    assert a["digest"] == b["digest"]
    assert a["counts"] == b["counts"]
    assert a["digest"] != c["digest"]


def test_churn_exercises_refusals_and_timeouts():
    counts = checked(small_churn(0))["counts"]["fleet"]
    assert counts["ok"] and counts["timeouts"] and counts["refused"]


def test_tracing_changes_no_output_and_reconciles_charges():
    workload = small_churn(5)
    units = workload.units()
    untraced, _ = measure(workload, units, 0.0)
    traced, _ = measure(workload, units, 0.0, traced=True)
    result = verdict(workload, units, untraced, traced)
    assert result["correct"], result["problems"]


def test_self_time_folding_on_a_synthetic_tree():
    spans = [
        Span("root", 0.0, 10.0),
        Span("child", 1.0, 4.0, parent=0),
        Span("other", 3.0, 6.0, parent=0),  # overlaps "child": counted once
        Span("leaf", 2.0, 3.0, parent=1),
        Span("child", 7.0, 8.0, parent=0),
    ]
    folded = self_times(spans)
    assert folded == pytest.approx(
        {"root": 10.0 - 5.0 - 1.0, "child": 2.0 + 1.0, "other": 3.0, "leaf": 1.0})


def test_recorder_nests_wrapped_calls_and_marks_failures():
    recorder = Recorder()

    def inner(value):
        if value < 0:
            raise ValueError("negative")
        return value

    timed_inner = recorder.timed(inner, "inner")
    outer = recorder.timed(lambda value: timed_inner(value), "outer")
    assert outer(1) == 1
    with pytest.raises(ValueError):
        outer(-1)
    names = [(span.name, span.parent, span.failed) for span in recorder.spans]
    assert names == [("outer", None, False), ("inner", 0, False),
                     ("outer", None, True), ("inner", 2, True)]


class SlowedLangevin(AuditWorkload):
    """The langevin family's ``release_many`` takes twice as long."""

    def build(self, family):
        prepared = super().build(family)
        if family == "langevin":
            release_many = prepared.mechanism.release_many

            def doubled(*args, **kwargs):
                started = time.perf_counter()
                outputs = release_many(*args, **kwargs)
                time.sleep(time.perf_counter() - started)
                return outputs

            prepared.mechanism.release_many = doubled
        return prepared


def test_a_slower_kernel_is_attributed_to_its_family_draw_time():
    def layers(cls):
        units, executions = once(small_audit(1, cls), traced=True)
        chosen = median_executions(executions)
        folded = sum(sum(e.layers["self_s"].values()) for e in chosen.values())
        wall = sum(e.seconds for e in chosen.values())
        assert folded == pytest.approx(wall, rel=0.05)
        return layer_metrics(units, chosen, 0.0)

    base, slowed = layers(AuditWorkload), layers(SlowedLangevin)
    added = slowed["testing.audit.langevin.draw_s"] - base["testing.audit.langevin.draw_s"]
    assert added > 0.5 * base["testing.audit.langevin.draw_s"]
    assert abs(slowed["testing.audit.langevin.estimate_s"]
               - base["testing.audit.langevin.estimate_s"]) < 0.25 * added
    assert slowed["mechanisms.release_many.self_s"] > base["mechanisms.release_many.self_s"]


def test_emitted_metric_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    units, executions = once(small_paper(0), traced=True)
    chosen = median_executions(executions)
    emitted_layers = layer_metrics(units, chosen, 0.0)
    emitted_e2e = {"setup_s", *end_to_end(units, executions)}
    assert emitted_e2e == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(emitted_layers) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert emitted_layers["experiments.E8.s"] > 0
    assert emitted_layers["mechanisms.release_many.calls"] > 0
    for name in emitted_e2e | set(emitted_layers):
        assert NAME.fullmatch(name), name


def test_benchmark_json_follows_its_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["perf"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = [entry["name"] for section in ("workloads", "end_to_end", "per_layer")
             for entry in BENCHMARK[section]]
    assert len(names) == len(set(names))
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
        assert metric["better"] in ("lower", "higher")


@pytest.mark.parametrize("a, b, better, expected", [
    ([10.0, 10.1, 9.9, 10.0], [12.0, 12.1, 11.9, 12.0], "lower", "regressed"),
    ([10.0, 10.1, 9.9, 10.0], [10.2, 10.3, 10.1, 10.2], "lower", "within bound"),
    ([10.0, 10.1, 9.9, 10.0], [8.0, 8.1, 7.9, 8.0], "lower", "improved"),
    ([10.0, 10.1, 9.9, 10.0], [8.0, 8.1, 7.9, 8.0], "higher", "regressed"),
    ([10.0, 14.0, 6.0, 10.0], [10.0, 10.1, 9.9, 10.0], "lower", "unresolved"),
    ([10.0, 14.0, 6.0, 10.0], [3.0, 3.1, 2.9, 3.0], "lower", "improved"),
])
def test_compare_verdicts(a, b, better, expected):
    assert judge(a, b, better, 0.05)["verdict"] == expected
