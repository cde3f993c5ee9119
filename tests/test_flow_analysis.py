"""Tests for dpflow: the whole-program dataflow layer of dplint.

Covers the project model / symbol resolution / call graph, the taint
engine, each flow rule (DPL007–DPL012) on true-positive and true-negative
fixtures, SARIF rendering, the parallel
analyzer's byte-identity guarantee, configuration validation (programmatic
and pyproject), file collection, and pragma edge cases.
"""

import json
import textwrap

import pytest

from repro.analysis import (
    AnalysisConfig,
    Analyzer,
    analyze_source,
    analyze_sources_parallel,
    config_from_mapping,
    format_sarif,
    format_text,
    load_pyproject_config,
    sarif_payload,
)
from repro.analysis.__main__ import run as cli_run
from repro.analysis.config import HAVE_TOML
from repro.analysis.flow import (
    FunctionTaintAnalysis,
    ProjectModel,
    TaintOptions,
    iter_function_defs,
    module_name_for,
)
from repro.analysis.pragmas import PRAGMA_RULE_ID
from repro.exceptions import ConfigurationError, ValidationError


def run_rule(source: str, path: str, rule_id: str, config=None):
    """Findings of one flow rule on dedented ``source`` at virtual ``path``."""
    config = config or AnalysisConfig(select=frozenset({rule_id}))
    report = analyze_source(textwrap.dedent(source), path, config=config)
    return [f for f in report.findings if f.rule_id == rule_id]


def project_of(*pairs):
    """Build a :class:`ProjectModel` from ``(source, path)`` pairs."""
    return ProjectModel.from_sources(
        [(textwrap.dedent(source), path) for source, path in pairs]
    )


# ---------------------------------------------------------------------------
# Project model, symbols, call graph
# ---------------------------------------------------------------------------


class TestProjectModel:
    def test_module_name_for(self):
        assert module_name_for(("privacy", "audit.py")) == "repro.privacy.audit"
        assert module_name_for(("privacy", "__init__.py")) == "repro.privacy"
        assert module_name_for(("cli.py",)) == "repro.cli"

    def test_from_sources_records_syntax_errors(self):
        project = project_of(("def broken(:\n", "core/bad.py"))
        info = project.modules[0]
        assert info.tree is None
        assert isinstance(info.error, SyntaxError)

    def test_module_lookup(self):
        project = project_of(("x = 1\n", "core/mod.py"))
        assert project.module("repro.core.mod") is not None
        assert project.module("repro.core.other") is None

    def test_name_collisions_first_wins(self):
        project = project_of(
            ("x = 1\n", "core/mod.py"), ("y = 2\n", "core/mod.py")
        )
        info = project.module("repro.core.mod")
        assert info is not None and "x = 1" in info.source


class TestSymbols:
    def test_canonicalize_local_symbol(self):
        project = project_of(("def fit(dataset):\n    return 0\n", "core/bayes.py"))
        assert (
            project.symbols.canonicalize("repro.core.bayes", "fit")
            == "repro.core.bayes.fit"
        )

    def test_canonicalize_import_alias(self):
        project = project_of(("import numpy as np\n", "core/mod.py"))
        assert (
            project.symbols.canonicalize("repro.core.mod", "np.array")
            == "numpy.array"
        )

    def test_resolve_module_member_access(self):
        project = project_of(
            ("def fit(dataset):\n    return 0\n", "core/bayes.py"),
            (
                """
                from repro.core import bayes

                def go(dataset):
                    return bayes.fit(dataset)
                """,
                "experiments/go.py",
            ),
        )
        symbol = project.symbols.resolve("repro.experiments.go", "bayes.fit")
        assert symbol is not None
        assert symbol.qualname == "repro.core.bayes.fit"
        assert symbol.kind == "function"


class TestCallGraph:
    def test_cross_module_edge(self):
        project = project_of(
            ("def fit(dataset):\n    return 0\n", "core/bayes.py"),
            (
                """
                from repro.core import bayes

                def go(dataset):
                    return bayes.fit(dataset)
                """,
                "experiments/go.py",
            ),
        )
        graph = project.callgraph
        assert "repro.core.bayes.fit" in graph.callees("repro.experiments.go.go")
        assert "repro.experiments.go.go" in graph.callers("repro.core.bayes.fit")

    def test_self_method_edge_and_neighborhood(self):
        project = project_of(
            (
                """
                class Auditor:
                    def drive(self, dataset):
                        return self.step(dataset)

                    def step(self, dataset):
                        return dataset
                """,
                "privacy/audit.py",
            )
        )
        graph = project.callgraph
        drive = "repro.privacy.audit.Auditor.drive"
        step = "repro.privacy.audit.Auditor.step"
        assert step in graph.callees(drive)
        assert graph.neighborhood(step) == frozenset({step, drive})

    def test_class_call_resolves_to_class(self):
        project = project_of(
            (
                """
                class Acc:
                    def __init__(self):
                        self.total = 0.0

                def make():
                    return Acc()
                """,
                "mechanisms/acc.py",
            )
        )
        graph = project.callgraph
        assert "repro.mechanisms.acc.Acc" in graph.callees(
            "repro.mechanisms.acc.make"
        )


# ---------------------------------------------------------------------------
# Taint engine
# ---------------------------------------------------------------------------


def _analysis_for(source: str):
    import ast

    tree = ast.parse(textwrap.dedent(source))
    _, func = next(iter_function_defs(tree))
    return FunctionTaintAnalysis(tree.body[0], TaintOptions(), lambda name: name)


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
# Flow rules DPL007–DPL012
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
            "experiments/snippet.py",
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
            "experiments/snippet.py",
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
            "privacy/snippet.py",
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
            "experiments/snippet.py",
            "DPL007",
        )
        assert findings == []

    def test_out_of_scope_package_is_ignored(self):
        findings = run_rule(
            """
            def summarize(dataset):
                print(sum(dataset))
            """,
            "mechanisms/snippet.py",
            "DPL007",
        )
        assert findings == []

    def test_return_sink_only_in_serving(self):
        source = """
        def endpoint(dataset):
            return dataset
        """
        assert len(run_rule(source, "serving/api.py", "DPL007")) == 1
        assert run_rule(source, "experiments/run.py", "DPL007") == []


class TestUnaccountedRelease:
    """DPL008: release with an accountant in scope must be charged."""

    def test_flags_uncharged_release(self):
        findings = run_rule(
            """
            def spend(dataset, mech, accountant):
                return mech.release(dataset)
            """,
            "experiments/snippet.py",
            "DPL008",
        )
        assert len(findings) == 1

    def test_local_charge_clears(self):
        findings = run_rule(
            """
            def spend(dataset, mech, accountant):
                accountant.charge(mech.spec)
                return mech.release(dataset)
            """,
            "experiments/snippet.py",
            "DPL008",
        )
        assert findings == []

    def test_charge_in_direct_caller_clears(self):
        findings = run_rule(
            """
            def helper(dataset, mech, accountant):
                return mech.release(dataset)

            def caller(dataset, mech, accountant):
                accountant.charge(mech.spec)
                return helper(dataset, mech, accountant)
            """,
            "experiments/snippet.py",
            "DPL008",
        )
        assert findings == []

    def test_constructed_accountant_counts(self):
        findings = run_rule(
            """
            from repro.mechanisms.accountant import PrivacyAccountant

            def spend(dataset, mech):
                ledger = PrivacyAccountant(budget=1.0)
                return mech.release(dataset)
            """,
            "experiments/snippet.py",
            "DPL008",
        )
        assert len(findings) == 1

    def test_no_accountant_no_finding(self):
        findings = run_rule(
            """
            def spend(dataset, mech):
                return mech.release(dataset)
            """,
            "experiments/snippet.py",
            "DPL008",
        )
        assert findings == []


class TestEpsilonDrift:
    """DPL009: constructed epsilon must match the charged epsilon."""

    def test_flags_drift(self):
        findings = run_rule(
            """
            def go(dataset, accountant):
                mech = LaplaceMechanism(epsilon=1.0)
                accountant.charge(PrivacySpec(epsilon=0.5))
                return mech
            """,
            "experiments/snippet.py",
            "DPL009",
        )
        assert len(findings) == 1
        assert "[1.0]" in findings[0].message
        assert "[0.5]" in findings[0].message

    def test_matching_epsilons_clean(self):
        findings = run_rule(
            """
            def go(dataset, accountant):
                mech = LaplaceMechanism(epsilon=1.0)
                accountant.charge(PrivacySpec(epsilon=1.0))
                return mech
            """,
            "experiments/snippet.py",
            "DPL009",
        )
        assert findings == []

    def test_shared_constant_is_clean(self):
        findings = run_rule(
            """
            def go(dataset, accountant):
                eps = 0.25
                mech = LaplaceMechanism(epsilon=eps)
                accountant.charge(PrivacySpec(epsilon=eps))
                return mech
            """,
            "experiments/snippet.py",
            "DPL009",
        )
        assert findings == []


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
            "experiments/snippet.py",
            "DPL010",
        )
        assert len(findings) == 1

    def test_flags_comprehension(self):
        findings = run_rule(
            """
            def draw(dataset, mech, n):
                return [mech.release(dataset) for _ in range(n)]
            """,
            "experiments/snippet.py",
            "DPL010",
        )
        assert len(findings) == 1

    def test_loop_dependent_release_is_clean(self):
        findings = run_rule(
            """
            def draw(datasets, mech):
                return [mech.release(d) for d in datasets]
            """,
            "experiments/snippet.py",
            "DPL010",
        )
        assert findings == []

    def test_release_outside_loop_is_clean(self):
        findings = run_rule(
            """
            def draw(dataset, mech):
                return mech.release(dataset)
            """,
            "experiments/snippet.py",
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
            "experiments/snippet.py",
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
            "experiments/snippet.py",
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
            "mechanisms/snippet.py",
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
            "mechanisms/snippet.py",
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
            "mechanisms/snippet.py",
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
            "experiments/snippet.py",
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
            "experiments/snippet.py",
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
            "experiments/snippet.py",
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


def _loopy_report(config=None):
    config = config or AnalysisConfig(select=frozenset({"DPL010"}))
    return analyze_source(
        textwrap.dedent(LOOPY), "experiments/snippet.py", config=config
    )


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
        report = analyze_source(
            source,
            "experiments/snippet.py",
            config=AnalysisConfig(select=frozenset({"DPL010"})),
        )
        assert report.suppressed_count == 1
        payload = json.loads(format_sarif(report))
        assert payload["runs"][0]["results"] == []


# ---------------------------------------------------------------------------
# Parallel analyzer
# ---------------------------------------------------------------------------

PARALLEL_SOURCES = [
    (textwrap.dedent(LOOPY), "experiments/one.py"),
    (
        "def validate(dataset):\n"
        '    raise ValueError(f"bad: {dataset!r}")\n',
        "mechanisms/two.py",
    ),
    ("def clean():\n    return 0\n", "core/three.py"),
]


class TestParallel:
    def test_parallel_matches_serial_byte_identically(self):
        config = AnalysisConfig(select=frozenset({"DPL010", "DPL011"}))
        serial = Analyzer(config=config).analyze_sources(PARALLEL_SOURCES)
        parallel = analyze_sources_parallel(PARALLEL_SOURCES, config, jobs=2)
        assert parallel.findings == serial.findings
        assert parallel.files_checked == serial.files_checked
        assert format_text(parallel) == format_text(serial)
        assert format_sarif(parallel) == format_sarif(serial)

    def test_jobs_one_falls_back_to_serial(self):
        config = AnalysisConfig(select=frozenset({"DPL010"}))
        serial = Analyzer(config=config).analyze_sources(PARALLEL_SOURCES)
        fallback = analyze_sources_parallel(PARALLEL_SOURCES, config, jobs=1)
        assert fallback.findings == serial.findings

    def test_invalid_config_raises_in_parent(self):
        config = AnalysisConfig(select=frozenset({"DPL0xx"}))
        with pytest.raises(ConfigurationError):
            analyze_sources_parallel(PARALLEL_SOURCES, config, jobs=2)


# ---------------------------------------------------------------------------
# Configuration validation (satellite: unknown rule ids fail loudly)
# ---------------------------------------------------------------------------


class TestConfigValidation:
    def test_unknown_select_key_names_nearest_rule(self):
        with pytest.raises(ConfigurationError, match="DPL007"):
            Analyzer(config=AnalysisConfig(select=frozenset({"DPL07"})))

    def test_unknown_rules_table_key(self):
        with pytest.raises(ConfigurationError, match="DPL099"):
            config_from_mapping({"rules": {"DPL099": {}}})

    def test_unknown_name_suggests_close_match(self):
        with pytest.raises(ConfigurationError, match="raw-data-egress"):
            config_from_mapping({"select": ["raw-data-egres"]})

    def test_stray_top_level_key(self):
        with pytest.raises(ConfigurationError, match="select"):
            config_from_mapping({"selct": ["DPL001"]})

    def test_bad_severity_name(self):
        with pytest.raises(ConfigurationError, match="severity"):
            config_from_mapping({"rules": {"DPL001": {"severity": "fatal"}}})

    @pytest.mark.skipif(not HAVE_TOML, reason="tomllib unavailable")
    def test_pyproject_unknown_rule_id(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text('[tool.dplint]\nselect = ["DPL042"]\n')
        with pytest.raises(ConfigurationError, match="DPL042"):
            load_pyproject_config(pyproject)

    @pytest.mark.skipif(not HAVE_TOML, reason="tomllib unavailable")
    def test_pyproject_without_section_is_none(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text('[tool.other]\nx = 1\n')
        assert load_pyproject_config(pyproject) is None

    @pytest.mark.skipif(not HAVE_TOML, reason="tomllib unavailable")
    def test_pyproject_options_round_trip(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            "[tool.dplint]\n"
            'ignore = ["DPL006"]\n'
            "[tool.dplint.rules.DPL010]\n"
            'severity = "error"\n'
            "[tool.dplint.rules.DPL010.options]\n"
            'release_methods = ["release", "draw"]\n'
        )
        config = load_pyproject_config(pyproject)
        assert config is not None
        assert "DPL006" in config.ignore
        assert config.rule_option("DPL010", "release_methods", ()) == (
            "release",
            "draw",
        )


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
        config = AnalysisConfig(select=frozenset({"DPL010", "DPL012"}))
        report = analyze_source(
            textwrap.dedent(source), "experiments/snippet.py", config=config
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
        config = AnalysisConfig(select=frozenset({"DPL010"}))
        report = analyze_source(
            textwrap.dedent(source), "experiments/snippet.py", config=config
        )
        assert report.findings == []
        assert report.suppressed_count == 1

    def test_missing_justification_reported(self):
        source = """
        def draw(dataset, mech, n):
            return [mech.release(dataset) for _ in range(n)]  # dplint: disable=DPL010
        """
        report = analyze_source(
            textwrap.dedent(source),
            "experiments/snippet.py",
            config=AnalysisConfig(select=frozenset({"DPL010"})),
        )
        pragma = [f for f in report.findings if f.rule_id == PRAGMA_RULE_ID]
        assert len(pragma) == 1
        assert "justification" in pragma[0].message

    def test_unknown_rule_in_pragma_suggests_neighbor(self):
        source = """
        def draw(dataset, mech, n):
            return [mech.release(dataset) for _ in range(n)]  # dplint: disable=DPL0010 -- typo
        """
        report = analyze_source(
            textwrap.dedent(source),
            "experiments/snippet.py",
            config=AnalysisConfig(select=frozenset({"DPL010"})),
        )
        pragma = [f for f in report.findings if f.rule_id == PRAGMA_RULE_ID]
        assert len(pragma) == 1
        assert "did you mean 'DPL010'" in pragma[0].message

    def test_flow_finding_suppressed_at_sink_line(self):
        source = """
        def summarize(dataset):
            total = sum(dataset)
            print(total)  # dplint: disable=DPL007 -- debugging harness only
        """
        report = analyze_source(
            textwrap.dedent(source),
            "experiments/snippet.py",
            config=AnalysisConfig(select=frozenset({"DPL007"})),
        )
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
        assert cli_run([self._violation_file(tmp_path), "--no-config"]) == 1
        assert "DPL010" in capsys.readouterr().out

    def test_unknown_select_exits_two(self, tmp_path, capsys):
        code = cli_run(
            [self._violation_file(tmp_path), "--no-config", "--select", "DPLxyz"]
        )
        assert code == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_sarif_output_parses(self, tmp_path, capsys):
        cli_run([self._violation_file(tmp_path), "--no-config", "--format", "sarif"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"

    def test_parallel_cli_matches_serial(self, tmp_path, capsys):
        target = self._violation_file(tmp_path)
        cli_run([target, "--no-config"])
        serial_out = capsys.readouterr().out
        cli_run([target, "--no-config", "--jobs", "4"])
        assert capsys.readouterr().out == serial_out
