"""Process-parallel ``dplint`` with bit-identical output.

The CLI fans per-module rule dispatch across ``min(os.cpu_count(), files)``
worker processes. Each worker receives the **full** source list once (at
pool initialization) and builds the same
:class:`~repro.analysis.flow.project.ProjectModel` the serial analyzer
would, so whole-program rules see identical context in every process;
workers then analyze only their assigned modules. Results are merged in
submission order and sorted exactly like the serial path, which makes
parallel output byte-identical to serial — a property the test suite pins.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro.analysis.engine import AnalysisReport, Analyzer
from repro.analysis.findings import Finding
from repro.analysis.flow.project import ProjectModel

__all__ = ["analyze_paths_parallel"]


@dataclass
class _WorkerState:
    """Per-process analyzer state built once by the pool initializer."""

    analyzer: Analyzer
    project: ProjectModel


_STATE: _WorkerState | None = None


def _init_worker(sources: Sequence[tuple[str, str]]) -> None:
    """Pool initializer: parse the whole project once per worker process.

    Parameters
    ----------
    sources:
        Every ``(source, path)`` pair of the run.
    """
    global _STATE
    _STATE = _WorkerState(
        analyzer=Analyzer(), project=ProjectModel.from_sources(sources)
    )


def _analyze_index(index: int) -> tuple[list[Finding], int]:
    """Analyze one module of the worker's project by position.

    Parameters
    ----------
    index:
        Position of the module in the shared source list.
    """
    assert _STATE is not None, "worker used before initialization"
    project = _STATE.project
    report = AnalysisReport()
    _STATE.analyzer._analyze_module(report, project.modules[index], project)
    return report.findings, report.suppressed_count


def analyze_paths_parallel(paths: Iterable[str], *, jobs: int) -> AnalysisReport:
    """Analyze files and directories across up to ``jobs`` processes.

    Parameters
    ----------
    paths:
        Files or directories to analyze.
    jobs:
        Requested process count; clamped to the number of files. One
        worker (or a single file) runs the serial analyzer in-process.
    """
    analyzer = Analyzer()
    sources = [
        (path.read_text(encoding="utf-8"), display)
        for path, display in analyzer.collect(paths)
    ]
    workers = min(jobs, len(sources))
    if workers <= 1:
        return analyzer.analyze_sources(sources)
    report = AnalysisReport(files_checked=len(sources))
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_worker,
        initargs=(tuple(sources),),
    ) as pool:
        # map() yields in submission order, so the merge is deterministic.
        for findings, suppressed in pool.map(_analyze_index, range(len(sources))):
            report.findings.extend(findings)
            report.suppressed_count += suppressed
    report.findings.sort()
    return report
