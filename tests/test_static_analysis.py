"""Unit tests for the dplint static-analysis engine and its rules.

Each rule is exercised on at least one violating and one clean synthetic
fixture via :func:`analyze_source` with a virtual package path; the final
test (marked ``lint``) runs the full analyzer over the installed ``repro``
tree and asserts it is violation-free.
"""

import json
import pathlib
import textwrap

import pytest

from repro.analysis import (
    AnalysisConfig,
    Analyzer,
    Finding,
    RuleConfig,
    Severity,
    all_rules,
    analyze_paths,
    analyze_source,
    get_rule,
)
from repro.analysis.pragmas import PRAGMA_RULE_ID, scan_pragmas
from repro.analysis.reporting import (
    format_json,
    format_report,
    format_rule_catalog,
    format_text,
)
from repro.exceptions import ValidationError

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def run(source: str, path: str, config: AnalysisConfig | None = None):
    """Analyze dedented ``source`` as if it lived at ``path``."""
    return analyze_source(textwrap.dedent(source), path, config=config)


def rule_findings(report, rule_id: str) -> list:
    """Findings of one rule only, so fixtures can ignore other rules."""
    return [f for f in report.findings if f.rule_id == rule_id]


class TestRegistry:
    def test_dp_rules_registered(self):
        ids = sorted(rule.id for rule in all_rules())
        assert ids == [f"DPL{k:03d}" for k in range(1, 13)]

    def test_lookup_by_id_and_name(self):
        assert get_rule("DPL001") is get_rule("rng-discipline")

    def test_lookup_unknown(self):
        with pytest.raises(ValidationError):
            get_rule("DPL042")

    def test_every_rule_documents_itself(self):
        for rule in all_rules():
            assert rule.description
            assert rule.rationale
            assert isinstance(rule.default_severity, Severity)


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
            "mechanisms/snippet.py",
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
            "mechanisms/snippet.py",
        )
        assert len(rule_findings(report, "DPL001")) == 1

    def test_flags_stdlib_random(self):
        report = run(
            """
            import random

            def release(scale):
                return random.random() * scale
            """,
            "privacy/snippet.py",
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
            "mechanisms/snippet.py",
        )
        assert rule_findings(report, "DPL001") == []

    def test_out_of_scope_package_not_flagged(self):
        report = run(
            """
            import numpy as np

            def helper():
                return np.random.default_rng()
            """,
            "experiments/snippet.py",
        )
        assert rule_findings(report, "DPL001") == []


class TestValidatePrivacyParams:
    """DPL002: epsilon/delta/sensitivity must hit a validator."""

    def test_flags_unvalidated_epsilon(self):
        report = run(
            """
            class Mech:
                def __init__(self, epsilon):
                    self.epsilon = epsilon
            """,
            "mechanisms/snippet.py",
        )
        findings = rule_findings(report, "DPL002")
        assert len(findings) == 1
        assert "epsilon" in findings[0].message

    def test_flags_each_missing_parameter(self):
        report = run(
            """
            def release(values, epsilon, sensitivity):
                \"\"\"Doc.

                Parameters
                ----------
                values, epsilon, sensitivity : object
                \"\"\"
                return sum(values)
            """,
            "mechanisms/snippet.py",
        )
        messages = [f.message for f in rule_findings(report, "DPL002")]
        assert len(messages) == 2
        assert any("epsilon" in m for m in messages)
        assert any("sensitivity" in m for m in messages)

    def test_clean_check_positive(self):
        report = run(
            """
            from repro.utils.validation import check_positive

            class Mech:
                def __init__(self, epsilon):
                    self.epsilon = check_positive(epsilon, name="epsilon")
            """,
            "mechanisms/snippet.py",
        )
        assert rule_findings(report, "DPL002") == []

    def test_clean_privacy_spec(self):
        report = run(
            """
            from repro.mechanisms.base import PrivacySpec

            class Mech:
                def __init__(self, epsilon):
                    self.spec = PrivacySpec(epsilon=epsilon)
            """,
            "mechanisms/snippet.py",
        )
        assert rule_findings(report, "DPL002") == []

    def test_private_function_exempt(self):
        report = run(
            """
            def _helper(epsilon):
                return epsilon * 2
            """,
            "mechanisms/snippet.py",
        )
        assert rule_findings(report, "DPL002") == []


class TestNoNaiveSampling:
    """DPL003: heavy-tailed draws only in the sanctioned sampler modules."""

    def test_flags_direct_laplace_method(self):
        report = run(
            """
            def add_noise(rng, value, scale):
                return value + rng.laplace(0.0, scale)
            """,
            "mechanisms/snippet.py",
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
            "mechanisms/snippet.py",
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
            "distributions/continuous.py",
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
            "mechanisms/snippet.py",
        )
        assert rule_findings(report, "DPL003") == []


class TestNoSilentExcept:
    """DPL004: no bare or swallowing exception handlers."""

    def test_flags_bare_except(self):
        report = run(
            """
            def release(value):
                try:
                    return value + 1
                except:
                    raise RuntimeError("failed")
            """,
            "mechanisms/snippet.py",
        )
        findings = rule_findings(report, "DPL004")
        assert len(findings) == 1
        assert "bare" in findings[0].message

    def test_flags_swallowed_exception(self):
        report = run(
            """
            def release(value):
                try:
                    value = value + 1
                except ValueError:
                    pass
                return value
            """,
            "privacy/snippet.py",
        )
        findings = rule_findings(report, "DPL004")
        assert len(findings) == 1
        assert "swallow" in findings[0].message

    def test_clean_handler_that_reraises(self):
        report = run(
            """
            def release(value):
                try:
                    return value + 1
                except ValueError as error:
                    raise RuntimeError("release failed") from error
            """,
            "mechanisms/snippet.py",
        )
        assert rule_findings(report, "DPL004") == []


class TestExplicitExports:
    """DPL005: __init__.py declares a matching literal __all__."""

    def test_flags_missing_all(self):
        report = run(
            """
            from repro.mechanisms.base import Mechanism
            """,
            "mechanisms/__init__.py",
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
            "mechanisms/__init__.py",
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
            "mechanisms/__init__.py",
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
            "mechanisms/__init__.py",
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
            "mechanisms/__init__.py",
        )
        assert rule_findings(report, "DPL005") == []

    def test_regular_module_exempt(self):
        report = run(
            """
            def release():
                \"\"\"Doc.\"\"\"
            """,
            "mechanisms/laplace.py",
        )
        assert rule_findings(report, "DPL005") == []


class TestDocstringParameters:
    """DPL006: public API has docstrings; multi-param defs a Parameters
    section."""

    def test_flags_missing_docstring(self):
        report = run(
            """
            def release(value):
                return value
            """,
            "mechanisms/snippet.py",
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
            "mechanisms/snippet.py",
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
            "mechanisms/snippet.py",
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
            "mechanisms/snippet.py",
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
            "mechanisms/snippet.py",
        )
        assert rule_findings(report, "DPL006") == []

    def test_single_param_function_needs_only_docstring(self):
        report = run(
            """
            def release(value):
                \"\"\"Release value.\"\"\"
                return value
            """,
            "mechanisms/snippet.py",
        )
        assert rule_findings(report, "DPL006") == []


class TestPragmas:
    VIOLATION = """
        def add_noise(rng, value, scale):
            return value + rng.laplace(0.0, scale)  # dplint: disable=DPL003 -- test fixture
        """

    def test_pragma_suppresses_finding(self):
        report = run(self.VIOLATION, "mechanisms/snippet.py")
        assert rule_findings(report, "DPL003") == []
        assert report.suppressed_count == 1
        assert rule_findings(report, PRAGMA_RULE_ID) == []

    def test_pragma_by_rule_name(self):
        report = run(
            """
            def add_noise(rng, value, scale):
                return value + rng.laplace(0.0, scale)  # dplint: disable=no-naive-sampling -- fixture
            """,
            "mechanisms/snippet.py",
        )
        assert rule_findings(report, "DPL003") == []
        assert report.suppressed_count == 1

    def test_disable_all(self):
        report = run(
            """
            def add_noise(rng, value, scale):
                return value + rng.laplace(0.0, scale)  # dplint: disable=all -- fixture
            """,
            "mechanisms/snippet.py",
        )
        assert rule_findings(report, "DPL003") == []

    def test_missing_justification_reported(self):
        report = run(
            """
            def add_noise(rng, value, scale):
                return value + rng.laplace(0.0, scale)  # dplint: disable=DPL003
            """,
            "mechanisms/snippet.py",
        )
        findings = rule_findings(report, PRAGMA_RULE_ID)
        assert len(findings) == 1
        assert "justification" in findings[0].message
        # The suppression itself still works.
        assert rule_findings(report, "DPL003") == []

    def test_justification_optional_when_configured(self):
        config = AnalysisConfig(require_pragma_justification=False)
        report = run(
            """
            def add_noise(rng, value, scale):
                return value + rng.laplace(0.0, scale)  # dplint: disable=DPL003
            """,
            "mechanisms/snippet.py",
            config,
        )
        assert rule_findings(report, PRAGMA_RULE_ID) == []

    def test_unknown_rule_reported(self):
        report = run(
            """
            x = 1  # dplint: disable=DPL042 -- never existed
            """,
            "mechanisms/snippet.py",
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
            "mechanisms/snippet.py",
        )
        assert len(rule_findings(report, "DPL003")) == 1


class TestEngine:
    def test_syntax_error_reported_not_raised(self):
        report = run("def broken(:\n", "mechanisms/snippet.py")
        assert len(report.findings) == 1
        assert report.findings[0].rule_id == "DPL999"
        assert report.exit_code == 1

    def test_clean_report(self):
        report = run("x = 1\n", "mechanisms/snippet.py")
        assert report.ok
        assert report.exit_code == 0
        assert report.files_checked == 1

    def test_select_runs_only_named_rules(self):
        config = AnalysisConfig(select=frozenset({"DPL004"}))
        report = run(
            """
            import numpy as np

            def release(value):
                try:
                    return np.random.default_rng().uniform()
                except ValueError:
                    pass
            """,
            "mechanisms/snippet.py",
            config,
        )
        assert {f.rule_id for f in report.findings} == {"DPL004"}

    def test_ignore_wins_over_select(self):
        config = AnalysisConfig(
            select=frozenset({"DPL001"}), ignore=frozenset({"DPL001"})
        )
        report = run(
            """
            import numpy as np

            rng = np.random.default_rng()
            """,
            "mechanisms/snippet.py",
            config,
        )
        assert report.findings == []

    def test_severity_override(self):
        config = AnalysisConfig(
            rules={"DPL003": RuleConfig(severity=Severity.INFO)}
        )
        report = run(
            """
            def add_noise(rng, scale):
                return rng.laplace(0.0, scale)
            """,
            "mechanisms/snippet.py",
            config,
        )
        findings = rule_findings(report, "DPL003")
        assert findings and findings[0].severity is Severity.INFO

    def test_rule_option_override(self):
        config = AnalysisConfig(
            rules={"DPL001": RuleConfig(options={"packages": ("elsewhere",)})}
        )
        report = run(
            """
            import numpy as np

            rng = np.random.default_rng()
            """,
            "mechanisms/snippet.py",
            config,
        )
        assert rule_findings(report, "DPL001") == []

    def test_findings_sorted_by_location(self):
        report = run(
            """
            def second(rng, scale):
                return rng.gumbel(0.0, scale)

            def first(rng, scale):
                return rng.laplace(0.0, scale)
            """,
            "mechanisms/snippet.py",
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
            "mechanisms/snippet.py",
        )
        assert report.count_by_rule()["DPL003"] >= 1
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
            "mechanisms/snippet.py",
        )

    def test_text_format(self):
        text = format_text(self._report())
        assert "mechanisms/snippet.py:" in text
        assert "DPL003" in text
        assert "finding(s)" in text

    def test_json_format_round_trips(self):
        payload = json.loads(format_json(self._report()))
        assert payload["files_checked"] == 1
        assert payload["findings"][0]["rule_id"] == "DPL003"
        assert payload["findings"][0]["severity"] == "error"

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
        assert Severity.INFO < Severity.WARNING < Severity.ERROR

    def test_from_name(self):
        assert Severity.from_name("error") is Severity.ERROR

    def test_from_name_unknown(self):
        with pytest.raises(ValueError):
            Severity.from_name("catastrophic")


@pytest.mark.lint
def test_repro_source_tree_is_violation_free():
    """The shipped library and the benchmarks pass their own linter with no
    allowlist — the PR gate. Inline pragmas are the only suppression."""
    import repro

    package_dir = str(next(iter(repro.__path__)))
    benchmarks_dir = REPO_ROOT / "benchmarks"
    report = Analyzer().analyze_paths([package_dir, str(benchmarks_dir)])
    details = "\n".join(str(f) for f in report.findings)
    assert report.ok, f"dplint findings in the source tree:\n{details}"
    assert report.files_checked > 50
