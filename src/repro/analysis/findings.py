"""Finding and severity model for the ``dplint`` static analyzer.

A :class:`Finding` is one rule violation, addressed ``path:line:column`` so
editors and CI logs can jump straight to the offending code. Findings are
plain data — formatting lives in :mod:`repro.analysis.reporting`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.IntEnum):
    """How bad a finding is; each rule carries one fixed severity."""

    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location.

    Parameters
    ----------
    path:
        File the violation was found in (as given to the analyzer).
    line:
        1-based line number.
    column:
        0-based column offset.
    rule_id:
        Stable rule identifier, e.g. ``"DPL001"``.
    rule_name:
        Human-readable rule slug, e.g. ``"rng-discipline"``.
    severity:
        The finding's :class:`Severity`.
    message:
        One-line description of what is wrong and how to fix it.
    end_line:
        Last 1-based line of the offending construct (``None`` when the
        construct is single-line). Suppression pragmas on *any* physical
        line of the span waive the finding, so a pragma on a continuation
        line of a multi-line call still works.
    """

    path: str
    line: int
    column: int
    rule_id: str = field(compare=False)
    rule_name: str = field(compare=False)
    severity: Severity = field(compare=False)
    message: str = field(compare=False)
    end_line: int | None = field(compare=False, default=None)

    @property
    def location(self) -> str:
        """``path:line:column`` address of this finding."""
        return f"{self.path}:{self.line}:{self.column}"

    def __str__(self) -> str:
        return (
            f"{self.location}: {self.rule_id} [{self.rule_name}] "
            f"{self.severity}: {self.message}"
        )
