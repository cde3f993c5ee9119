"""Text, JSON, and SARIF renderers for ``dplint`` reports."""

from __future__ import annotations

import json

from repro.analysis.engine import AnalysisReport
from repro.analysis.registry import all_rules
from repro.analysis.sarif import format_sarif
from repro.exceptions import ValidationError

#: Output formats accepted by the CLI.
FORMATS = ("text", "json", "sarif")


def format_text(report: AnalysisReport) -> str:
    """Human-readable one-line-per-finding rendering with a summary.

    Parameters
    ----------
    report:
        The analyzer outcome to render.
    """
    lines = [str(finding) for finding in report.findings]
    counts = report.count_by_severity()
    summary = ", ".join(
        f"{counts[name]} {name}" for name in ("error", "warning", "info") if name in counts
    )
    hidden_note = (
        f" ({report.suppressed_count} suppressed)" if report.suppressed_count else ""
    )
    if report.ok:
        lines.append(
            f"dplint: {report.files_checked} file(s) checked, no findings"
            + hidden_note
        )
    else:
        lines.append(
            f"dplint: {report.files_checked} file(s) checked, "
            f"{len(report.findings)} finding(s): {summary}{hidden_note}"
        )
    return "\n".join(lines)


def format_json(report: AnalysisReport) -> str:
    """Machine-readable rendering (stable keys, sorted findings).

    Parameters
    ----------
    report:
        The analyzer outcome to render.
    """
    payload = {
        "files_checked": report.files_checked,
        "suppressed": report.suppressed_count,
        "ok": report.ok,
        "summary": {
            "by_severity": report.count_by_severity(),
            "by_rule": report.count_by_rule(),
        },
        "findings": [finding.to_dict() for finding in report.findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def format_report(report: AnalysisReport, fmt: str = "text") -> str:
    """Render ``report`` in the requested format.

    Parameters
    ----------
    report:
        The analyzer outcome to render.
    fmt:
        One of :data:`FORMATS`.
    """
    if fmt == "text":
        return format_text(report)
    if fmt == "json":
        return format_json(report)
    if fmt == "sarif":
        return format_sarif(report)
    raise ValidationError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def format_rule_catalog() -> str:
    """The rule catalog as aligned text (backs ``--list-rules``)."""
    lines = []
    for rule_class in all_rules():
        lines.append(
            f"{rule_class.id}  {rule_class.name:<26} "
            f"[{rule_class.default_severity}] {rule_class.description}"
        )
    return "\n".join(lines)
