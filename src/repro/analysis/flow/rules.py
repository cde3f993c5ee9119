"""Flow rules: whole-program privacy dataflow checks.

These rules run on top of the taint engine
(:mod:`repro.analysis.flow.taint`) and the project model
(:mod:`repro.analysis.flow.project`). Where the DPL001–DPL006 rules police
local idioms, the flow rules trace *values*: raw records reaching an
egress point or an exception message, scalar releases that should be one
vectorized draw, and privatized results that are thrown away.
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterator

from repro.analysis.base import ModuleContext, Rule
from repro.analysis.findings import Finding, Severity
from repro.analysis.flow.project import module_name_for
from repro.analysis.flow.taint import (
    FunctionTaintAnalysis,
    dead_sanitizer_assignments,
    iter_function_defs,
)
from repro.analysis.registry import register

#: Sink kinds DPL007 enforces everywhere. ``return`` is an egress sink only
#: in :data:`RETURN_SINK_PACKAGES`, because experiments legitimately return
#: data-derived aggregates.
EGRESS_SINKS = frozenset({"print", "logging", "file-write", "ledger"})
RETURN_SINK_PACKAGES = frozenset({"serving"})


class FlowRule(Rule):
    """Base class for rules that resolve names across the whole project."""

    def canonicalizer(self, ctx: ModuleContext) -> Callable[[str], str]:
        """Name-canonicalization function for the module under analysis.

        Parameters
        ----------
        ctx:
            The module under analysis.
        """
        module_name = module_name_for(ctx.package_parts)
        if ctx.project.module(module_name) is not None:
            symbols = ctx.project.symbols
            return lambda name: symbols.canonicalize(module_name, name)
        return ctx.imports.resolve


@register
class RawDataEgressRule(FlowRule):
    """DPL007: raw records must pass a DP release before leaving the program."""

    id = "DPL007"
    name = "raw-data-egress"
    description = (
        "Values derived from raw records must be declassified by a DP "
        "release before reaching print/logging/file/ledger sinks."
    )
    rationale = (
        "Every un-noised statistic that escapes to stdout, a log stream, a "
        "ledger payload, or a file is an unbounded privacy loss: the "
        "epsilon ledger says one thing while the process leaks the raw "
        "empirical risk (Mir 2012's information channel with no noise)."
    )
    severity = Severity.ERROR

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Yield findings for tainted values reaching egress sinks."""
        if not ctx.in_library:
            return
        sinks = EGRESS_SINKS
        if ctx.package in RETURN_SINK_PACKAGES:
            sinks = sinks | {"return"}
        canonicalize = self.canonicalizer(ctx)
        for _, func in iter_function_defs(ctx.tree):
            analysis = FunctionTaintAnalysis(func, canonicalize)
            for event in analysis.iter_sink_events():
                if event.kind not in sinks:
                    continue
                yield self.finding(
                    ctx,
                    event.node,
                    f"raw data from {event.label.describe()} reaches "
                    f"{event.detail} without a DP release; privatize with "
                    "release()/release_many() before egress",
                )


@register
class ScalarReleaseInLoopRule(Rule):
    """DPL010: loop-invariant scalar releases should be release_many."""

    id = "DPL010"
    name = "scalar-release-in-loop"
    description = (
        "A .release() call inside a loop that does not depend on the loop "
        "variable should be one vectorized release_many() call."
    )
    rationale = (
        "n scalar releases re-validate and re-trace n times; release_many "
        "draws the same noise stream in one vectorized call "
        "(bit-identical by the mechanism contract) and records one span "
        "instead of n."
    )
    severity = Severity.WARNING

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Yield findings for loop-invariant scalar releases."""
        for _, func in iter_function_defs(ctx.tree):
            parents = {
                child: parent
                for parent in ast.walk(func)
                for child in ast.iter_child_nodes(parent)
            }
            for node in ast.walk(func):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "release"
                ):
                    continue
                loop_names = self._innermost_loop_names(node, func, parents)
                if loop_names is None:
                    continue  # not inside any loop
                if not (loop_names & self._names(node)):
                    yield self.finding(
                        ctx,
                        node,
                        "loop-invariant scalar .release() call; one "
                        ".release_many(dataset, n) draw is stream-identical "
                        "and amortizes validation and tracing",
                    )

    @staticmethod
    def _innermost_loop_names(
        call: ast.Call, func: ast.AST, parents: dict[ast.AST, ast.AST]
    ) -> set[str] | None:
        """Binding names of the nearest enclosing for-loop/comprehension.

        Returns ``None`` when the call sits outside any loop (while loops
        are deliberately not counted — their trip count is rarely a batch
        size). Judging invariance against the *innermost* loop only keeps
        a per-item release inside a comprehension from being blamed on an
        unrelated outer loop.

        Parameters
        ----------
        call:
            The release call being classified.
        func:
            The enclosing function definition (walk boundary).
        parents:
            Child → parent map for the function body.
        """
        comp_types = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        node: ast.AST = call
        while node is not func:
            parent = parents.get(node)
            if parent is None:
                return None
            if isinstance(parent, (ast.For, ast.AsyncFor)) and node is not parent.iter:
                return ScalarReleaseInLoopRule._names(parent.target)
            if isinstance(parent, ast.comprehension):
                via_first_iter = node is parent.iter
                comp_clause = parent
                expr = parents.get(parent)
                if expr is None or not isinstance(expr, comp_types):
                    return None
                if (
                    via_first_iter
                    and expr.generators
                    and expr.generators[0] is comp_clause
                ):
                    # The first generator's iterable is evaluated once,
                    # before iteration starts — keep looking further out.
                    node = expr
                    continue
                names: set[str] = set()
                for generator in expr.generators:
                    names |= ScalarReleaseInLoopRule._names(generator.target)
                return names
            if isinstance(parent, comp_types):
                names = set()
                for generator in parent.generators:
                    names |= ScalarReleaseInLoopRule._names(generator.target)
                return names
            node = parent
        return None

    @staticmethod
    def _names(node: ast.AST) -> set[str]:
        return {
            child.id for child in ast.walk(node) if isinstance(child, ast.Name)
        }


@register
class TaintThroughExceptionRule(FlowRule):
    """DPL011: raw records must not be embedded in exception messages."""

    id = "DPL011"
    name = "taint-through-exception"
    description = (
        "Values derived from raw records must not flow into raised "
        "exception messages."
    )
    rationale = (
        "Exception text is the egress channel nobody audits: it lands in "
        "pytest output, CI logs, and crash reports. A validation error "
        "that interpolates the offending record republishes the data the "
        "mechanism was supposed to protect."
    )
    severity = Severity.WARNING

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Yield findings for tainted values reaching raise statements."""
        canonicalize = self.canonicalizer(ctx)
        for _, func in iter_function_defs(ctx.tree):
            analysis = FunctionTaintAnalysis(func, canonicalize)
            for event in analysis.iter_sink_events():
                if event.kind != "raise":
                    continue
                yield self.finding(
                    ctx,
                    event.node,
                    f"raw data from {event.label.describe()} flows into a "
                    "raised exception message; describe the violation "
                    "without embedding records",
                )


@register
class DeadSanitizerRule(Rule):
    """DPL012: a DP release whose result is discarded wastes budget."""

    id = "DPL012"
    name = "dead-sanitizer"
    description = (
        "The result of a release()/release_many() call must be used; a "
        "discarded release still spends privacy budget."
    )
    rationale = (
        "A release whose output is never read is pure privacy loss: the "
        "noise was drawn, the budget (if accounted) was charged, and "
        "nothing was learned. Almost always a refactoring leftover."
    )
    severity = Severity.WARNING

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Yield findings for discarded release results."""
        for _, func in iter_function_defs(ctx.tree):
            for call in dead_sanitizer_assignments(func):
                yield self.finding(
                    ctx,
                    call,
                    "DP release result is never used; the privacy budget "
                    "is spent with no utility — use the value or delete "
                    "the call",
                )
