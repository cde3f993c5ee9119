"""The ``dplint`` engine: file collection, rule dispatch, suppression.

:class:`Analyzer` collects the requested paths into one
:class:`~repro.analysis.flow.project.ProjectModel` (every file parsed
exactly once), runs every enabled rule over the shared ASTs — whole-program
flow rules see the full project through ``ctx.project`` — filters findings
through the inline-pragma suppression index, and returns an
:class:`AnalysisReport`.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

# Re-exported for backwards compatibility: these lived here before the
# flow subpackage needed them without importing the engine.
from repro.analysis.base import PACKAGE_ROOT, ModuleContext, Rule, package_parts
from repro.analysis.config import AnalysisConfig
from repro.analysis.findings import Finding, Severity
from repro.analysis.flow.project import ModuleInfo, ProjectModel
from repro.analysis.pragmas import pragma_findings, scan_pragmas
from repro.analysis.registry import all_rules, known_rule_keys
from repro.exceptions import ValidationError

__all__ = [
    "PACKAGE_ROOT",
    "package_parts",
    "AnalysisReport",
    "Analyzer",
    "analyze_paths",
    "analyze_source",
]


@dataclass
class AnalysisReport:
    """Outcome of one analyzer run.

    Parameters
    ----------
    findings:
        Unsuppressed findings, sorted by location.
    files_checked:
        Number of Python files parsed.
    suppressed_count:
        Findings hidden by ``# dplint: disable`` pragmas.
    """

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed_count: int = 0

    @property
    def ok(self) -> bool:
        """True when no findings survived suppression."""
        return not self.findings

    @property
    def exit_code(self) -> int:
        """Process exit code: 0 clean, 1 findings."""
        return 0 if self.ok else 1

    def count_by_severity(self) -> dict[str, int]:
        """Finding counts keyed by severity name."""
        counts: dict[str, int] = {}
        for finding in self.findings:
            key = str(finding.severity)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def count_by_rule(self) -> dict[str, int]:
        """Finding counts keyed by rule id."""
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
        return counts


class Analyzer:
    """Run the registered rules over files, directories, or raw source.

    Parameters
    ----------
    config:
        Analysis configuration; defaults to :class:`AnalysisConfig` with
        every rule enabled at its default options. Unknown rule ids or
        names anywhere in the config raise
        :class:`~repro.exceptions.ConfigurationError` immediately.
    rules:
        Rule classes to run; defaults to the full registry.
    """

    def __init__(
        self,
        config: AnalysisConfig | None = None,
        rules: Sequence[type[Rule]] | None = None,
    ) -> None:
        self.config = config or AnalysisConfig()
        self._known_keys = known_rule_keys()
        self.config.validate_rule_keys(self._known_keys)
        rule_classes = list(rules) if rules is not None else all_rules()
        self.rules: list[Rule] = [
            rule_class()
            for rule_class in rule_classes
            if self.config.is_enabled(rule_class.id, rule_class.name)
        ]

    def analyze_paths(self, paths: Iterable[str]) -> AnalysisReport:
        """Analyze files and directories (recursively, ``*.py`` only).

        Parameters
        ----------
        paths:
            Files or directories; directories are walked recursively,
            skipping components in ``config.exclude_parts``.
        """
        sources = [
            (path.read_text(encoding="utf-8"), display)
            for path, display in self.collect(paths)
        ]
        return self.analyze_sources(sources)

    def analyze_source(self, source: str, path: str) -> AnalysisReport:
        """Analyze one in-memory module as if it lived at ``path``.

        Parameters
        ----------
        source:
            Python source text.
        path:
            Path used for findings *and* for package-scoping rules, e.g.
            ``"mechanisms/snippet.py"``.
        """
        return self.analyze_sources([(source, path)])

    def analyze_sources(
        self, sources: Sequence[tuple[str, str]]
    ) -> AnalysisReport:
        """Analyze in-memory ``(source, path)`` pairs as one project.

        This is the core entry point both path-based and parallel analysis
        route through: the project is parsed once, whole-program rules see
        every module, and findings come back location-sorted.

        Parameters
        ----------
        sources:
            Module source text and the (possibly virtual) path of each.
        """
        project = ProjectModel.from_sources(sources)
        report = AnalysisReport()
        for info in project.modules:
            self._analyze_module(report, info, project)
        report.findings.sort()
        return report

    # -- internals -------------------------------------------------------

    def collect(self, paths: Iterable[str]) -> list[tuple[Path, str]]:
        """Resolve, dedupe, and stably order the files to analyze.

        Each entry pairs the resolved path (for reading) with the display
        path used in findings: relative to the current directory when the
        file is under it, absolute otherwise. Overlapping inputs (a
        directory plus a file inside it, the same file via two spellings)
        collapse to one entry, so no file is analyzed or reported twice.

        Parameters
        ----------
        paths:
            Files or directories as given on the command line.
        """
        resolved: dict[Path, Path] = {}
        for raw in paths:
            path = Path(raw)
            if path.is_dir():
                for candidate in path.rglob("*.py"):
                    if not self._excluded(candidate):
                        real = candidate.resolve()
                        resolved.setdefault(real, real)
            elif path.is_file():
                real = path.resolve()
                resolved.setdefault(real, real)
            else:
                raise ValidationError(f"no such file or directory: {raw}")
        cwd = Path.cwd().resolve()
        collected = []
        for real in sorted(resolved):
            try:
                display = str(real.relative_to(cwd))
            except ValueError:
                display = str(real)
            collected.append((real, display))
        return collected

    def _collect(self, paths: Iterable[str]) -> list[Path]:
        """Deprecated spelling of :meth:`collect` returning bare paths.

        Parameters
        ----------
        paths:
            Files or directories as given on the command line.
        """
        return [path for path, _ in self.collect(paths)]

    def _excluded(self, path: Path) -> bool:
        exclude = self.config.exclude_parts
        return any(
            any(marker in part for marker in exclude) for part in path.parts
        )

    def _analyze_module(
        self, report: AnalysisReport, info: ModuleInfo, project: ProjectModel
    ) -> None:
        report.files_checked += 1
        if info.tree is None:
            error = info.error
            report.findings.append(
                Finding(
                    path=info.path,
                    line=(error.lineno if error else None) or 1,
                    column=((error.offset if error else None) or 1) - 1,
                    rule_id="DPL999",
                    rule_name="syntax-error",
                    severity=Severity.ERROR,
                    message=(
                        f"file does not parse: {error.msg if error else 'unknown'}"
                    ),
                )
            )
            return
        ctx = ModuleContext(
            path=info.path,
            tree=info.tree,
            source_lines=info.source_lines,
            package_parts=info.package_parts,
            config=self.config,
            project=project,
        )
        suppressions = scan_pragmas(info.source)
        for rule in self.rules:
            for finding in rule.check(ctx):
                keys = frozenset((finding.rule_id, finding.rule_name))
                if suppressions.suppresses(
                    finding.line, keys, end_line=finding.end_line
                ):
                    report.suppressed_count += 1
                else:
                    report.findings.append(finding)
        report.findings.extend(
            pragma_findings(
                info.path,
                suppressions,
                self._known_keys,
                require_justification=self.config.require_pragma_justification,
            )
        )


def analyze_paths(
    paths: Iterable[str], config: AnalysisConfig | None = None
) -> AnalysisReport:
    """Convenience wrapper: run the default analyzer over ``paths``.

    Parameters
    ----------
    paths:
        Files or directories to analyze.
    config:
        Optional configuration override.
    """
    return Analyzer(config=config).analyze_paths(paths)


def analyze_source(
    source: str, path: str, config: AnalysisConfig | None = None
) -> AnalysisReport:
    """Convenience wrapper: analyze one in-memory module.

    Parameters
    ----------
    source:
        Python source text.
    path:
        Virtual path controlling finding addresses and package scoping.
    config:
        Optional configuration override.
    """
    return Analyzer(config=config).analyze_source(source, path)
