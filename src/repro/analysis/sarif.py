"""SARIF 2.1.0 rendering of ``dplint`` reports.

SARIF (Static Analysis Results Interchange Format) is what code-scanning
UIs ingest; emitting it lets the privacy lint annotate pull requests like
any other analyzer. The document carries the full rule catalog in
``tool.driver.rules`` (so viewers can show descriptions and rationale) and
one ``result`` per finding that survived pragma suppression — the upload
should only show actionable findings.
"""

from __future__ import annotations

import json
from typing import Any

from repro.analysis.engine import AnalysisReport
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import all_rules

__all__ = ["SARIF_VERSION", "SARIF_SCHEMA_URI", "sarif_payload", "format_sarif"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: dplint severities → SARIF result levels.
_LEVELS = {
    Severity.ERROR: "error",
    Severity.WARNING: "warning",
    Severity.INFO: "note",
}

#: Findings the engine emits outside the rule registry.
_SYNTHETIC_RULES = (
    ("DPL000", "pragma-hygiene", "Suppression pragmas must be well-formed."),
    ("DPL999", "syntax-error", "Files must parse."),
)


def _rule_catalog() -> tuple[list[dict[str, Any]], dict[str, int]]:
    rules: list[dict[str, Any]] = []
    index: dict[str, int] = {}
    entries: list[tuple[str, str, str, str]] = [
        (rule_id, name, description, "")
        for rule_id, name, description in _SYNTHETIC_RULES
    ]
    entries.extend(
        (
            rule_class.id,
            rule_class.name,
            rule_class.description,
            rule_class.rationale,
        )
        for rule_class in all_rules()
    )
    for rule_id, name, description, rationale in sorted(entries):
        index[rule_id] = len(rules)
        descriptor: dict[str, Any] = {
            "id": rule_id,
            "name": name,
            "shortDescription": {"text": description},
        }
        if rationale:
            descriptor["fullDescription"] = {"text": rationale}
        rules.append(descriptor)
    return rules, index


def _result(finding: Finding, rule_index: dict[str, int]) -> dict[str, Any]:
    region: dict[str, Any] = {
        "startLine": finding.line,
        "startColumn": finding.column + 1,
    }
    if finding.end_line is not None:
        region["endLine"] = finding.end_line
    result: dict[str, Any] = {
        "ruleId": finding.rule_id,
        "level": _LEVELS[finding.severity],
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": finding.path.replace("\\", "/")},
                    "region": region,
                }
            }
        ],
    }
    if finding.rule_id in rule_index:
        result["ruleIndex"] = rule_index[finding.rule_id]
    return result


def sarif_payload(report: AnalysisReport) -> dict[str, Any]:
    """The report as a SARIF 2.1.0 document (plain dict).

    Parameters
    ----------
    report:
        Analyzer outcome; pragma-suppressed findings are not in it.
    """
    rules, rule_index = _rule_catalog()
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "dplint",
                        "rules": rules,
                    }
                },
                "results": [
                    _result(finding, rule_index) for finding in report.findings
                ],
            }
        ],
    }


def format_sarif(report: AnalysisReport) -> str:
    """Serialize :func:`sarif_payload` with stable keys.

    Parameters
    ----------
    report:
        Analyzer outcome to render.
    """
    return json.dumps(sarif_payload(report), indent=2, sort_keys=True)
