"""Unit tests for the dplint static-analysis engine and its rules.

Each rule is exercised on at least one violating and one clean synthetic
fixture via :func:`analyze_source` with a virtual package path; the final
test (marked ``lint``) runs the full analyzer over the installed ``repro``
tree and asserts it is violation-free.
"""

import pathlib
import textwrap

import pytest

from repro.analysis import (
    Analyzer,
    Finding,
    Severity,
    all_rules,
    analyze_paths,
    analyze_source,
    get_rule,
)
from repro.analysis.pragmas import PRAGMA_RULE_ID, scan_pragmas
from repro.analysis.reporting import (
    format_report,
    format_rule_catalog,
    format_text,
)
from repro.exceptions import ValidationError

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def run(source: str, path: str):
    """Analyze dedented ``source`` as if it lived at ``path``."""
    return analyze_source(textwrap.dedent(source), path)


def rule_findings(report, rule_id: str) -> list:
    """Findings of one rule only, so fixtures can ignore other rules."""
    return [f for f in report.findings if f.rule_id == rule_id]


class TestRegistry:
    def test_dp_rules_registered(self):
        ids = sorted(rule.id for rule in all_rules())
        assert ids == [f"DPL{k:03d}" for k in (1, 3, 5, 6, 7, 10, 11, 12)]

    def test_lookup_by_id_and_name(self):
        assert get_rule("DPL001") is get_rule("rng-discipline")

    def test_lookup_unknown(self):
        with pytest.raises(ValidationError):
            get_rule("DPL042")

    def test_every_rule_documents_itself(self):
        for rule in all_rules():
            assert rule.description
            assert rule.rationale
            assert isinstance(rule.severity, Severity)


class TestRngDiscipline:
    """DPL001: no numpy.random.* / random.* calls in scoped packages."""

    def test_flags_numpy_random_call(self):
        report = run(
            """
            import numpy as np

            def release(scale):
                rng = np.random.default_rng()
                return rng.uniform() * scale
            """,
            "repro/mechanisms/snippet.py",
        )
        findings = rule_findings(report, "DPL001")
        assert len(findings) == 1
        assert "numpy.random.default_rng" in findings[0].message
        assert findings[0].severity is Severity.ERROR

    def test_flags_from_import_alias(self):
        report = run(
            """
            from numpy import random as nr

            def release(scale):
                return nr.laplace(0.0, scale)
            """,
            "repro/mechanisms/snippet.py",
        )
        assert len(rule_findings(report, "DPL001")) == 1

    def test_flags_stdlib_random(self):
        report = run(
            """
            import random

            def release(scale):
                return random.random() * scale
            """,
            "repro/privacy/snippet.py",
        )
        assert len(rule_findings(report, "DPL001")) == 1

    def test_clean_injected_generator(self):
        report = run(
            """
            from repro.utils.validation import check_random_state

            def release(scale, random_state=None):
                rng = check_random_state(random_state)
                return rng.uniform() * scale
            """,
            "repro/mechanisms/snippet.py",
        )
        assert rule_findings(report, "DPL001") == []

    def test_out_of_scope_package_not_flagged(self):
        # Scripts outside the repro package (benchmarks, examples) are the
        # callers that seed a Generator and inject it.
        report = run(
            """
            import numpy as np

            def helper():
                return np.random.default_rng()
            """,
            "benchmarks/snippet.py",
        )
        assert rule_findings(report, "DPL001") == []

    def test_every_library_package_in_scope(self):
        source = """
        import numpy as np

        def helper():
            return np.random.default_rng()
        """
        for path in ("repro/experiments/snippet.py", "repro/cli.py"):
            assert len(rule_findings(run(source, path), "DPL001")) == 1

    def test_generator_factory_exempt(self):
        report = run(
            """
            import numpy as np

            def check_random_state(seed):
                return np.random.default_rng(seed)
            """,
            "repro/utils/validation.py",
        )
        assert rule_findings(report, "DPL001") == []


class TestNoNaiveSampling:
    """DPL003: heavy-tailed draws only in the sanctioned sampler modules."""

    def test_flags_direct_laplace_method(self):
        report = run(
            """
            def add_noise(rng, value, scale):
                return value + rng.laplace(0.0, scale)
            """,
            "repro/mechanisms/snippet.py",
        )
        findings = rule_findings(report, "DPL003")
        assert len(findings) == 1
        assert ".laplace()" in findings[0].message

    def test_flags_log_uniform_idiom(self):
        report = run(
            """
            import numpy as np

            def add_noise(rng, scale):
                return -scale * np.log(rng.uniform())
            """,
            "repro/mechanisms/snippet.py",
        )
        findings = rule_findings(report, "DPL003")
        assert len(findings) == 1
        assert "log(uniform" in findings[0].message

    def test_sanctioned_module_exempt(self):
        report = run(
            """
            def sample(rng, scale):
                return rng.laplace(0.0, scale)
            """,
            "repro/distributions/continuous.py",
        )
        assert rule_findings(report, "DPL003") == []

    def test_clean_noise_law_call(self):
        report = run(
            """
            from repro.distributions.continuous import LaplaceNoise

            def add_noise(value, scale, random_state=None):
                noise = LaplaceNoise(scale).sample(random_state=random_state)
                return value + noise
            """,
            "repro/mechanisms/snippet.py",
        )
        assert rule_findings(report, "DPL003") == []


class TestExplicitExports:
    """DPL005: __init__.py declares a matching literal __all__."""

    def test_flags_missing_all(self):
        report = run(
            """
            from repro.mechanisms.base import Mechanism
            """,
            "repro/mechanisms/__init__.py",
        )
        findings = rule_findings(report, "DPL005")
        assert len(findings) == 1
        assert "__all__" in findings[0].message

    def test_flags_stale_entry(self):
        report = run(
            """
            def release():
                \"\"\"Doc.\"\"\"

            __all__ = ["release", "vanished"]
            """,
            "repro/mechanisms/__init__.py",
        )
        findings = rule_findings(report, "DPL005")
        assert len(findings) == 1
        assert "vanished" in findings[0].message
        assert "stale" in findings[0].message

    def test_flags_unlisted_public_name(self):
        report = run(
            """
            def release():
                \"\"\"Doc.\"\"\"

            def audit():
                \"\"\"Doc.\"\"\"

            __all__ = ["release"]
            """,
            "repro/mechanisms/__init__.py",
        )
        findings = rule_findings(report, "DPL005")
        assert len(findings) == 1
        assert "audit" in findings[0].message

    def test_flags_duplicate_entry(self):
        report = run(
            """
            def release():
                \"\"\"Doc.\"\"\"

            __all__ = ["release", "release"]
            """,
            "repro/mechanisms/__init__.py",
        )
        findings = rule_findings(report, "DPL005")
        assert len(findings) == 1
        assert "more than once" in findings[0].message

    def test_clean_matching_all(self):
        report = run(
            """
            \"\"\"Package doc.\"\"\"

            from repro.mechanisms.base import Mechanism

            __version__ = "1.0"

            __all__ = ["Mechanism", "__version__"]
            """,
            "repro/mechanisms/__init__.py",
        )
        assert rule_findings(report, "DPL005") == []

    def test_regular_module_exempt(self):
        report = run(
            """
            def release():
                \"\"\"Doc.\"\"\"
            """,
            "repro/mechanisms/laplace.py",
        )
        assert rule_findings(report, "DPL005") == []


class TestLazyExports:
    """DPL005 on a lazy package: the keys of its literal ``_EXPORTS``
    table count as bound names."""

    LAZY = """
        \"\"\"Package doc.\"\"\"

        from repro.information.entropy import entropy
        from repro._lazy import attach as _attach

        _EXPORTS = {{
            {table}
        }}

        __all__ = [{names}]

        __getattr__, __dir__ = _attach(__name__, _EXPORTS)
        """

    def lazy(self, table: str, names: str):
        source = self.LAZY.format(table=table, names=names)
        return rule_findings(run(source, "repro/information/__init__.py"), "DPL005")

    def test_clean_lazy_package(self):
        findings = self.lazy(
            '"kl_divergence": "repro.information.divergences",\n'
            '            "DiscreteChannel": "repro.information.channel",',
            '"DiscreteChannel", "entropy", "kl_divergence"',
        )
        assert findings == []

    def test_flags_stale_entry_missing_from_the_table(self):
        findings = self.lazy(
            '"kl_divergence": "repro.information.divergences",',
            '"entropy", "kl_divergence", "total_variation"',
        )
        assert len(findings) == 1
        assert "total_variation" in findings[0].message
        assert "stale" in findings[0].message

    def test_flags_table_key_missing_from_all(self):
        findings = self.lazy(
            '"kl_divergence": "repro.information.divergences",\n'
            '            "total_variation": "repro.information.divergences",',
            '"entropy", "kl_divergence"',
        )
        assert len(findings) == 1
        assert "total_variation" in findings[0].message
        assert "missing from __all__" in findings[0].message

    def test_flags_key_given_twice(self):
        findings = self.lazy(
            '"kl_divergence": "repro.information.divergences",\n'
            '            "kl_divergence": "repro.information.channel",',
            '"entropy", "kl_divergence"',
        )
        assert len(findings) == 1
        assert "_EXPORTS maps 'kl_divergence' more than once" in findings[0].message
        assert findings[0].line == 7

    def test_table_under_another_name_binds_nothing(self):
        source = self.LAZY.format(
            table='"kl_divergence": "repro.information.divergences",',
            names='"entropy", "kl_divergence"',
        ).replace("_EXPORTS", "_TABLE")
        findings = rule_findings(run(source, "repro/information/__init__.py"), "DPL005")
        assert len(findings) == 1
        assert "'kl_divergence'" in findings[0].message
        assert "stale" in findings[0].message


class TestDocstringParameters:
    """DPL006: public API has docstrings; multi-param defs a Parameters
    section."""

    def test_flags_missing_docstring(self):
        report = run(
            """
            def release(value):
                return value
            """,
            "repro/mechanisms/snippet.py",
        )
        findings = rule_findings(report, "DPL006")
        assert len(findings) == 1
        assert "no docstring" in findings[0].message
        assert findings[0].severity is Severity.WARNING

    def test_flags_missing_parameters_section(self):
        report = run(
            """
            def release(value, epsilon):
                \"\"\"Release value privately.\"\"\"
                return value
            """,
            "repro/mechanisms/snippet.py",
        )
        findings = rule_findings(report, "DPL006")
        assert len(findings) == 1
        assert "Parameters" in findings[0].message

    def test_init_params_documented_on_class(self):
        report = run(
            """
            class Mech:
                def __init__(self, query, epsilon):
                    self.query = query
            """,
            "repro/mechanisms/snippet.py",
        )
        findings = rule_findings(report, "DPL006")
        assert len(findings) == 1
        assert "Mech" in findings[0].message

    def test_clean_with_parameters_section(self):
        report = run(
            """
            def release(value, epsilon):
                \"\"\"Release value privately.

                Parameters
                ----------
                value:
                    The true value.
                epsilon:
                    Privacy parameter.
                \"\"\"
                return value
            """,
            "repro/mechanisms/snippet.py",
        )
        assert rule_findings(report, "DPL006") == []

    def test_property_needs_only_docstring(self):
        report = run(
            """
            class Mech:
                \"\"\"Doc.\"\"\"

                @property
                def scale(self):
                    \"\"\"Noise scale.\"\"\"
                    return 1.0
            """,
            "repro/mechanisms/snippet.py",
        )
        assert rule_findings(report, "DPL006") == []

    def test_single_param_function_needs_only_docstring(self):
        report = run(
            """
            def release(value):
                \"\"\"Release value.\"\"\"
                return value
            """,
            "repro/mechanisms/snippet.py",
        )
        assert rule_findings(report, "DPL006") == []


class TestPragmas:
    VIOLATION = """
        def add_noise(rng, value, scale):
            return value + rng.laplace(0.0, scale)  # dplint: disable=DPL003 -- test fixture
        """

    def test_pragma_suppresses_finding(self):
        report = run(self.VIOLATION, "repro/mechanisms/snippet.py")
        assert rule_findings(report, "DPL003") == []
        assert report.suppressed_count == 1
        assert rule_findings(report, PRAGMA_RULE_ID) == []

    def test_pragma_by_rule_name(self):
        report = run(
            """
            def add_noise(rng, value, scale):
                return value + rng.laplace(0.0, scale)  # dplint: disable=no-naive-sampling -- fixture
            """,
            "repro/mechanisms/snippet.py",
        )
        assert rule_findings(report, "DPL003") == []
        assert report.suppressed_count == 1

    def test_disable_all(self):
        report = run(
            """
            def add_noise(rng, value, scale):
                return value + rng.laplace(0.0, scale)  # dplint: disable=all -- fixture
            """,
            "repro/mechanisms/snippet.py",
        )
        assert rule_findings(report, "DPL003") == []

    def test_missing_justification_reported(self):
        report = run(
            """
            def add_noise(rng, value, scale):
                return value + rng.laplace(0.0, scale)  # dplint: disable=DPL003
            """,
            "repro/mechanisms/snippet.py",
        )
        findings = rule_findings(report, PRAGMA_RULE_ID)
        assert len(findings) == 1
        assert "justification" in findings[0].message
        # The suppression itself still works.
        assert rule_findings(report, "DPL003") == []

    def test_unknown_rule_reported(self):
        report = run(
            """
            x = 1  # dplint: disable=DPL042 -- never existed
            """,
            "repro/mechanisms/snippet.py",
        )
        findings = rule_findings(report, PRAGMA_RULE_ID)
        assert len(findings) == 1
        assert "DPL042" in findings[0].message

    def test_pragma_in_string_literal_ignored(self):
        index = scan_pragmas('text = "# dplint: disable=all"\n')
        assert index.pragmas == {}

    def test_pragma_only_covers_its_line(self):
        report = run(
            """
            # dplint: disable=DPL003 -- wrong line
            def add_noise(rng, value, scale):
                return value + rng.laplace(0.0, scale)
            """,
            "repro/mechanisms/snippet.py",
        )
        assert len(rule_findings(report, "DPL003")) == 1


class TestEngine:
    def test_syntax_error_reported_not_raised(self):
        report = run("def broken(:\n", "repro/mechanisms/snippet.py")
        assert len(report.findings) == 1
        assert report.findings[0].rule_id == "DPL999"
        assert report.exit_code == 1

    def test_clean_report(self):
        report = run("x = 1\n", "repro/mechanisms/snippet.py")
        assert report.ok
        assert report.exit_code == 0
        assert report.files_checked == 1

    def test_select_runs_only_named_rules(self):
        analyzer = Analyzer(rules=[get_rule("DPL001")])
        report = analyzer.analyze_source(
            textwrap.dedent(
                """
                import numpy as np

                def add_noise(rng, scale):
                    return np.random.default_rng().laplace(0.0, scale)
                """
            ),
            "repro/mechanisms/snippet.py",
        )
        assert {f.rule_id for f in report.findings} == {"DPL001"}

    def test_findings_sorted_by_location(self):
        report = run(
            """
            def second(rng, scale):
                return rng.gumbel(0.0, scale)

            def first(rng, scale):
                return rng.laplace(0.0, scale)
            """,
            "repro/mechanisms/snippet.py",
        )
        lines = [f.line for f in report.findings]
        assert lines == sorted(lines)

    def test_analyze_paths_rejects_missing(self):
        with pytest.raises(ValidationError):
            analyze_paths(["/no/such/path/anywhere"])

    def test_counts(self):
        report = run(
            """
            def add_noise(rng, scale):
                return rng.laplace(0.0, scale)
            """,
            "repro/mechanisms/snippet.py",
        )
        assert rule_findings(report, "DPL003")
        assert report.count_by_severity()["error"] >= 1


class TestReporting:
    def _report(self):
        return run(
            """
            def add_noise(rng, scale):
                \"\"\"Doc.

                Parameters
                ----------
                rng, scale : object
                \"\"\"
                return rng.laplace(0.0, scale)
            """,
            "repro/mechanisms/snippet.py",
        )

    def test_text_format(self):
        text = format_text(self._report())
        assert "repro/mechanisms/snippet.py:" in text
        assert "DPL003" in text
        assert "finding(s)" in text

    def test_format_report_rejects_unknown(self):
        with pytest.raises(ValidationError):
            format_report(self._report(), "yaml")

    def test_rule_catalog_lists_all(self):
        catalog = format_rule_catalog()
        for rule in all_rules():
            assert rule.id in catalog

    def test_finding_str_is_location_addressed(self):
        finding = Finding(
            path="a.py",
            line=3,
            column=4,
            rule_id="DPL001",
            rule_name="rng-discipline",
            severity=Severity.ERROR,
            message="boom",
        )
        assert str(finding) == "a.py:3:4: DPL001 [rng-discipline] error: boom"


class TestSeverity:
    def test_ordering(self):
        assert Severity.WARNING < Severity.ERROR


@pytest.mark.lint
def test_repro_source_tree_is_violation_free():
    """The shipped library, the benchmarks and the examples pass their own
    linter with no allowlist — the PR gate. Inline pragmas are the only
    suppression."""
    import repro

    package_dir = str(next(iter(repro.__path__)))
    report = Analyzer().analyze_paths(
        [package_dir, str(REPO_ROOT / "benchmarks"), str(REPO_ROOT / "examples")]
    )
    details = "\n".join(str(f) for f in report.findings)
    assert report.ok, f"dplint findings in the source tree:\n{details}"
    assert report.files_checked > 50
