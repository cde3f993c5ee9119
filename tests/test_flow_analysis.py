"""Tests for dpflow: the whole-program dataflow layer of dplint.

Covers the project model and symbol resolution, the taint engine, each
flow rule (DPL007, DPL010–DPL012) on true-positive and true-negative
fixtures, SARIF rendering, the parallel analyzer's byte-identity
guarantee, file collection, pragma edge cases, and the CLI.
"""

import json
import textwrap

import pytest

from repro.analysis import (
    Analyzer,
    analyze_paths_parallel,
    format_sarif,
    format_text,
    get_rule,
    sarif_payload,
)
from repro.analysis.__main__ import run as cli_run
from repro.analysis.flow import (
    FunctionTaintAnalysis,
    ProjectModel,
    iter_function_defs,
    module_name_for,
)
from repro.analysis.pragmas import PRAGMA_RULE_ID
from repro.exceptions import ValidationError


def analyze_with(source: str, path: str, *rule_ids: str):
    """Report of only ``rule_ids`` on dedented ``source`` at ``path``."""
    analyzer = Analyzer(rules=[get_rule(rule_id) for rule_id in rule_ids])
    return analyzer.analyze_source(textwrap.dedent(source), path)


def run_rule(source: str, path: str, rule_id: str):
    """Findings of one flow rule on dedented ``source`` at virtual ``path``."""
    report = analyze_with(source, path, rule_id)
    return [f for f in report.findings if f.rule_id == rule_id]


def project_of(*pairs):
    """Build a :class:`ProjectModel` from ``(source, path)`` pairs."""
    return ProjectModel.from_sources(
        [(textwrap.dedent(source), path) for source, path in pairs]
    )


# ---------------------------------------------------------------------------
# Project model and symbols
# ---------------------------------------------------------------------------


class TestProjectModel:
    def test_module_name_for(self):
        assert module_name_for(("privacy", "audit.py")) == "repro.privacy.audit"
        assert module_name_for(("privacy", "__init__.py")) == "repro.privacy"
        assert module_name_for(("cli.py",)) == "repro.cli"

    def test_from_sources_records_syntax_errors(self):
        project = project_of(("def broken(:\n", "repro/core/bad.py"))
        info = project.modules[0]
        assert info.tree is None
        assert isinstance(info.error, SyntaxError)

    def test_module_lookup(self):
        project = project_of(("x = 1\n", "repro/core/mod.py"))
        assert project.module("repro.core.mod") is not None
        assert project.module("repro.core.other") is None

    def test_name_collisions_first_wins(self):
        project = project_of(
            ("x = 1\n", "repro/core/mod.py"), ("y = 2\n", "repro/core/mod.py")
        )
        info = project.module("repro.core.mod")
        assert info is not None and "x = 1" in info.source


class TestSymbols:
    def test_canonicalize_local_symbol(self):
        project = project_of(("def fit(dataset):\n    return 0\n", "repro/core/bayes.py"))
        assert (
            project.symbols.canonicalize("repro.core.bayes", "fit")
            == "repro.core.bayes.fit"
        )

    def test_canonicalize_import_alias(self):
        project = project_of(("import numpy as np\n", "repro/core/mod.py"))
        assert (
            project.symbols.canonicalize("repro.core.mod", "np.array")
            == "numpy.array"
        )

    def test_resolve_module_member_access(self):
        project = project_of(
            ("def fit(dataset):\n    return 0\n", "repro/core/bayes.py"),
            (
                """
                from repro.core import bayes

                def go(dataset):
                    return bayes.fit(dataset)
                """,
                "repro/experiments/go.py",
            ),
        )
        assert (
            project.symbols.canonicalize("repro.experiments.go", "bayes.fit")
            == "repro.core.bayes.fit"
        )


# ---------------------------------------------------------------------------
# Taint engine
# ---------------------------------------------------------------------------


def _analysis_for(source: str):
    import ast

    tree = ast.parse(textwrap.dedent(source))
    _, func = next(iter_function_defs(tree))
    return FunctionTaintAnalysis(tree.body[0], lambda name: name)


class TestTaintEngine:
    def test_source_params_are_seeded(self):
        analysis = _analysis_for("def f(dataset, scale):\n    return scale\n")
        assert "dataset" in analysis.env
        assert "scale" not in analysis.env

    def test_sanitizer_reassignment_declassifies(self):
        analysis = _analysis_for(
            """
            def f(dataset, mech):
                x = dataset
                x = mech.release(x)
                return x
            """
        )
        assert "x" not in analysis.env
        assert not list(analysis.iter_sink_events())

    def test_propagation_through_fstring_and_arithmetic(self):
        analysis = _analysis_for(
            """
            def f(dataset):
                total = sum(dataset) / len(dataset)
                message = f"mean={total}"
                return message
            """
        )
        events = list(analysis.iter_sink_events())
        assert [event.kind for event in events] == ["return"]
        assert events[0].label.source == "dataset"

    def test_metadata_attributes_are_clean(self):
        analysis = _analysis_for(
            """
            def f(dataset):
                return dataset.shape
            """
        )
        assert not list(analysis.iter_sink_events())


# ---------------------------------------------------------------------------
# Flow rules DPL007, DPL010–DPL012
# ---------------------------------------------------------------------------


class TestRawDataEgress:
    """DPL007: tainted values must not reach egress sinks un-released."""

    def test_flags_print_of_raw_aggregate(self):
        findings = run_rule(
            """
            def summarize(dataset):
                total = sum(dataset)
                print(total)
            """,
            "repro/experiments/snippet.py",
            "DPL007",
        )
        assert len(findings) == 1
        assert "parameter 'dataset'" in findings[0].message

    def test_flags_ledger_payload(self):
        findings = run_rule(
            """
            def track(dataset, ledger):
                ledger.record(dataset)
            """,
            "repro/experiments/snippet.py",
            "DPL007",
        )
        assert len(findings) == 1
        assert "ledger.record()" in findings[0].message

    def test_flags_logging_and_file_write(self):
        findings = run_rule(
            """
            import logging

            def dump(dataset, path):
                logging.info("records: %s", dataset)
                path.write_text(str(dataset))
            """,
            "repro/privacy/snippet.py",
            "DPL007",
        )
        assert len(findings) == 2

    def test_released_value_is_clean(self):
        findings = run_rule(
            """
            def summarize(dataset, mech):
                value = mech.release(dataset)
                print(value)
            """,
            "repro/experiments/snippet.py",
            "DPL007",
        )
        assert findings == []

    def test_out_of_scope_package_is_ignored(self):
        # A script outside the repro package prints what it measures.
        findings = run_rule(
            """
            def summarize(dataset):
                print(sum(dataset))
            """,
            "examples/snippet.py",
            "DPL007",
        )
        assert findings == []

    def test_mechanisms_package_in_scope(self):
        findings = run_rule(
            """
            class Mech:
                def release(self, dataset):
                    true_value = sum(dataset)
                    print(true_value)
            """,
            "repro/mechanisms/snippet.py",
            "DPL007",
        )
        assert len(findings) == 1

    def test_return_sink_only_in_serving(self):
        source = """
        def endpoint(dataset):
            return dataset
        """
        assert len(run_rule(source, "repro/serving/api.py", "DPL007")) == 1
        assert run_rule(source, "repro/experiments/run.py", "DPL007") == []


class TestScalarReleaseInLoop:
    """DPL010: loop-invariant scalar releases should batch."""

    def test_flags_for_loop(self):
        findings = run_rule(
            """
            def draw(dataset, mech, n):
                out = []
                for _ in range(n):
                    out.append(mech.release(dataset))
                return out
            """,
            "repro/experiments/snippet.py",
            "DPL010",
        )
        assert len(findings) == 1

    def test_flags_comprehension(self):
        findings = run_rule(
            """
            def draw(dataset, mech, n):
                return [mech.release(dataset) for _ in range(n)]
            """,
            "repro/experiments/snippet.py",
            "DPL010",
        )
        assert len(findings) == 1

    def test_loop_dependent_release_is_clean(self):
        findings = run_rule(
            """
            def draw(datasets, mech):
                return [mech.release(d) for d in datasets]
            """,
            "repro/experiments/snippet.py",
            "DPL010",
        )
        assert findings == []

    def test_release_outside_loop_is_clean(self):
        findings = run_rule(
            """
            def draw(dataset, mech):
                return mech.release(dataset)
            """,
            "repro/experiments/snippet.py",
            "DPL010",
        )
        assert findings == []

    def test_first_generator_iter_judged_against_outer_loop(self):
        # The release feeds the comprehension's first iterable (evaluated
        # once per outer iteration), so the outer for-loop is the judge —
        # and exactly one finding is produced, not one per loop level.
        findings = run_rule(
            """
            def draw(dataset, mech, n):
                rows = []
                for seed in range(n):
                    rows.append([x + 1 for x in mech.release(dataset)])
                return rows
            """,
            "repro/experiments/snippet.py",
            "DPL010",
        )
        assert len(findings) == 1

    def test_while_loops_not_counted(self):
        findings = run_rule(
            """
            def draw(dataset, mech, stop):
                while not stop():
                    value = mech.release(dataset)
                return value
            """,
            "repro/experiments/snippet.py",
            "DPL010",
        )
        assert findings == []


class TestTaintThroughException:
    """DPL011: raw data must not appear in raised exception messages."""

    def test_flags_record_in_message(self):
        findings = run_rule(
            """
            def validate(dataset):
                if not dataset:
                    raise ValueError(f"bad dataset: {dataset!r}")
            """,
            "repro/mechanisms/snippet.py",
            "DPL011",
        )
        assert len(findings) == 1

    def test_data_free_message_is_clean(self):
        findings = run_rule(
            """
            def validate(dataset):
                if not dataset:
                    raise ValueError("dataset must be nonempty")
            """,
            "repro/mechanisms/snippet.py",
            "DPL011",
        )
        assert findings == []

    def test_metadata_in_message_is_clean(self):
        findings = run_rule(
            """
            def validate(dataset):
                if dataset.ndim != 1:
                    raise ValueError(f"expected 1-d data, got shape {dataset.shape}")
            """,
            "repro/mechanisms/snippet.py",
            "DPL011",
        )
        assert findings == []


class TestDeadSanitizer:
    """DPL012: a discarded release is pure privacy loss."""

    def test_flags_bare_expression(self):
        findings = run_rule(
            """
            def waste(dataset, mech):
                mech.release(dataset)
            """,
            "repro/experiments/snippet.py",
            "DPL012",
        )
        assert len(findings) == 1

    def test_flags_never_read_assignment(self):
        findings = run_rule(
            """
            def waste(dataset, mech):
                value = mech.release(dataset)
                return None
            """,
            "repro/experiments/snippet.py",
            "DPL012",
        )
        assert len(findings) == 1

    def test_used_result_is_clean(self):
        findings = run_rule(
            """
            def keep(dataset, mech):
                value = mech.release(dataset)
                return value
            """,
            "repro/experiments/snippet.py",
            "DPL012",
        )
        assert findings == []


# ---------------------------------------------------------------------------
# SARIF
# ---------------------------------------------------------------------------

LOOPY = """
def draw(dataset, mech, n):
    return [mech.release(dataset) for _ in range(n)]
"""


def _loopy_report():
    return analyze_with(LOOPY, "repro/experiments/snippet.py", "DPL010")


class TestSarif:
    def test_structure(self):
        report = _loopy_report()
        payload = sarif_payload(report)
        assert payload["version"] == "2.1.0"
        assert payload["$schema"].endswith("sarif-schema-2.1.0.json")
        run = payload["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "dplint"
        ids = [rule["id"] for rule in driver["rules"]]
        assert ids == sorted(ids) and len(ids) == len(set(ids))
        assert "DPL000" in ids and "DPL999" in ids

    def test_result_fields_and_rule_index(self):
        report = _loopy_report()
        payload = sarif_payload(report)
        run = payload["runs"][0]
        (result,) = run["results"]
        finding = report.findings[0]
        assert result["ruleId"] == "DPL010"
        assert result["level"] == "warning"
        assert result["message"]["text"] == finding.message
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == finding.line
        assert region["startColumn"] == finding.column + 1
        rules = run["tool"]["driver"]["rules"]
        assert rules[result["ruleIndex"]]["id"] == "DPL010"

    def test_pragma_suppressed_finding_is_not_a_result(self):
        source = textwrap.dedent(LOOPY).replace(
            "for _ in range(n)]",
            "for _ in range(n)]  # dplint: disable=DPL010 -- fixture",
        )
        report = analyze_with(source, "repro/experiments/snippet.py", "DPL010")
        assert report.suppressed_count == 1
        payload = json.loads(format_sarif(report))
        assert payload["runs"][0]["results"] == []


# ---------------------------------------------------------------------------
# Parallel analyzer
# ---------------------------------------------------------------------------

PARALLEL_SOURCES = [
    (textwrap.dedent(LOOPY), "repro/experiments/one.py"),
    (
        "def validate(dataset):\n"
        '    raise ValueError(f"bad: {dataset!r}")\n',
        "repro/mechanisms/two.py",
    ),
    ("def clean():\n    return 0\n", "repro/core/three.py"),
]


def _write_sources(root):
    for source, path in PARALLEL_SOURCES:
        target = root / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return str(root)


class TestParallel:
    def test_parallel_matches_serial_byte_identically(self, tmp_path):
        root = _write_sources(tmp_path)
        serial = Analyzer().analyze_paths([root])
        parallel = analyze_paths_parallel([root], jobs=2)
        assert serial.findings
        assert parallel.findings == serial.findings
        assert parallel.files_checked == serial.files_checked
        assert format_text(parallel) == format_text(serial)
        assert format_sarif(parallel) == format_sarif(serial)

    def test_jobs_one_falls_back_to_serial(self, tmp_path):
        root = _write_sources(tmp_path)
        serial = Analyzer().analyze_paths([root])
        fallback = analyze_paths_parallel([root], jobs=1)
        assert fallback.findings == serial.findings


# ---------------------------------------------------------------------------
# File collection (satellite: resolve + dedupe + stable ordering)
# ---------------------------------------------------------------------------


class TestCollect:
    def test_overlapping_inputs_dedupe(self, tmp_path):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "a.py").write_text("x = 1\n")
        (package / "b.py").write_text("y = 2\n")
        collected = Analyzer().collect(
            [str(package), str(package / "a.py"), str(tmp_path / "pkg")]
        )
        resolved = [path for path, _ in collected]
        assert resolved == sorted(set(resolved))
        assert len(resolved) == 2

    def test_symlink_spelling_dedupes(self, tmp_path):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "a.py").write_text("x = 1\n")
        alias = tmp_path / "alias"
        alias.symlink_to(package)
        collected = Analyzer().collect([str(package), str(alias)])
        assert len(collected) == 1

    def test_missing_path_raises(self):
        with pytest.raises(ValidationError, match="no such file"):
            Analyzer().collect(["/definitely/not/here.py"])

    def test_display_paths_are_stable(self, tmp_path):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "a.py").write_text("x = 1\n")
        ((path, display),) = Analyzer().collect([str(package)])
        assert path.is_absolute()
        assert display == str(path)  # outside cwd → absolute display


# ---------------------------------------------------------------------------
# Pragma edge cases
# ---------------------------------------------------------------------------


class TestPragmaEdgeCases:
    def test_multi_rule_disable_list(self):
        source = """
        def waste(dataset, mech, n):
            for _ in range(n):
                mech.release(dataset)  # dplint: disable=DPL010,DPL012 -- measured discard
        """
        report = analyze_with(
            source, "repro/experiments/snippet.py", "DPL010", "DPL012"
        )
        assert report.findings == []
        assert report.suppressed_count == 2

    def test_pragma_on_continuation_line_of_span(self):
        source = """
        def draw(dataset, mech, n):
            return [
                mech.release(
                    dataset
                )  # dplint: disable=DPL010 -- deliberate per-draw stream
                for _ in range(n)
            ]
        """
        report = analyze_with(source, "repro/experiments/snippet.py", "DPL010")
        assert report.findings == []
        assert report.suppressed_count == 1

    def test_missing_justification_reported(self):
        source = """
        def draw(dataset, mech, n):
            return [mech.release(dataset) for _ in range(n)]  # dplint: disable=DPL010
        """
        report = analyze_with(source, "repro/experiments/snippet.py", "DPL010")
        pragma = [f for f in report.findings if f.rule_id == PRAGMA_RULE_ID]
        assert len(pragma) == 1
        assert "justification" in pragma[0].message

    def test_unknown_rule_in_pragma_suggests_neighbor(self):
        source = """
        def draw(dataset, mech, n):
            return [mech.release(dataset) for _ in range(n)]  # dplint: disable=DPL0010 -- typo
        """
        report = analyze_with(source, "repro/experiments/snippet.py", "DPL010")
        pragma = [f for f in report.findings if f.rule_id == PRAGMA_RULE_ID]
        assert len(pragma) == 1
        assert "did you mean 'DPL010'" in pragma[0].message

    def test_flow_finding_suppressed_at_sink_line(self):
        source = """
        def summarize(dataset):
            total = sum(dataset)
            print(total)  # dplint: disable=DPL007 -- debugging harness only
        """
        report = analyze_with(source, "repro/experiments/snippet.py", "DPL007")
        assert report.findings == []
        assert report.suppressed_count == 1


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------


class TestCli:
    def _violation_file(self, tmp_path):
        target = tmp_path / "loopy.py"
        target.write_text(textwrap.dedent(LOOPY))
        return str(target)

    def test_exit_one_on_findings(self, tmp_path, capsys):
        assert cli_run([self._violation_file(tmp_path)]) == 1
        assert "DPL010" in capsys.readouterr().out

    def test_sarif_output_parses(self, tmp_path, capsys):
        cli_run([self._violation_file(tmp_path), "--format", "sarif"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"

    def test_parallel_cli_matches_serial(self, tmp_path, capsys):
        # The CLI runs one worker per CPU; its output must not depend on it.
        root = _write_sources(tmp_path)
        cli_run([root])
        assert capsys.readouterr().out == format_text(
            Analyzer().analyze_paths([root])
        ) + "\n"
