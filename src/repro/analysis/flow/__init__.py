"""``dpflow`` — whole-program privacy dataflow analysis for ``dplint``.

This subpackage upgrades the per-module linter into a flow-sensitive
analyzer: :mod:`~repro.analysis.flow.project` parses the full tree once,
:mod:`~repro.analysis.flow.symbols` resolves names across modules,
:mod:`~repro.analysis.flow.taint` traces raw records from sources to
sinks, and :mod:`~repro.analysis.flow.rules` turns those traces into the
DPL007 and DPL010–DPL012 findings.
"""

from repro.analysis.flow.project import ModuleInfo, ProjectModel, module_name_for
from repro.analysis.flow.symbols import ProjectSymbols
from repro.analysis.flow.taint import (
    FunctionTaintAnalysis,
    SinkEvent,
    TaintLabel,
    dead_sanitizer_assignments,
    iter_function_defs,
)

__all__ = [
    "FunctionTaintAnalysis",
    "ModuleInfo",
    "ProjectModel",
    "ProjectSymbols",
    "SinkEvent",
    "TaintLabel",
    "dead_sanitizer_assignments",
    "iter_function_defs",
    "module_name_for",
]
