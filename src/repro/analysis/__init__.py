"""``dplint`` — static analysis for differential-privacy correctness.

A self-contained AST-based linter enforcing the library's privacy
invariants: RNG injection discipline, mandatory ε/δ/sensitivity
validation, sanctioned-sampler usage, explicit ``__all__`` export
surfaces, and documented parameter contracts — plus the whole-program
``dpflow`` rules (:mod:`repro.analysis.flow`): raw-data egress tracking,
exception taint, loop-release vectorization, and dead-sanitizer detection.

dplint runs one fixed rule set with no configuration. Run it as
``python -m repro.analysis src/repro`` or ``repro lint`` (one worker
process per CPU, ``--format sarif`` for code-scanning upload). Findings
are suppressed only by inline ``# dplint: disable=<rule> -- why`` pragmas
(:mod:`repro.analysis.pragmas`); see ``docs/STATIC_ANALYSIS.md`` for the
rule catalog and the DP failure mode each rule guards against.
"""

from repro.analysis.base import ImportTracker, ModuleContext, Rule, dotted_name
from repro.analysis.engine import (
    AnalysisReport,
    Analyzer,
    analyze_paths,
    analyze_source,
    package_parts,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.parallel import analyze_paths_parallel
from repro.analysis.pragmas import (
    Pragma,
    SuppressionIndex,
    nearest_rule_key,
    pragma_findings,
    scan_pragmas,
)
from repro.analysis.registry import all_rules, get_rule, known_rule_keys, register
from repro.analysis.reporting import (
    FORMATS,
    format_report,
    format_rule_catalog,
    format_text,
)
from repro.analysis.sarif import format_sarif, sarif_payload

__all__ = [
    "AnalysisReport",
    "Analyzer",
    "FORMATS",
    "Finding",
    "ImportTracker",
    "ModuleContext",
    "Pragma",
    "Rule",
    "Severity",
    "SuppressionIndex",
    "all_rules",
    "analyze_paths",
    "analyze_paths_parallel",
    "analyze_source",
    "dotted_name",
    "format_report",
    "format_rule_catalog",
    "format_sarif",
    "format_text",
    "get_rule",
    "known_rule_keys",
    "nearest_rule_key",
    "package_parts",
    "pragma_findings",
    "register",
    "sarif_payload",
    "scan_pragmas",
]
