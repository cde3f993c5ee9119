"""DPL005 ``explicit-exports`` — ``__all__`` is the audited API surface.

The privacy review boundary of each package is its ``__all__``: auditors
check exactly the names exported there. A missing ``__all__`` makes
``from repro.mechanisms import *`` drag in submodules and helpers; a stale
one either advertises names that do not exist (import-time breakage for
consumers) or hides public objects from the audit surface.

A package whose exports load lazily (:mod:`repro._lazy`) binds them in its
literal ``_EXPORTS`` table rather than by import statements: the table's
keys count as bound names, so each must be listed in ``__all__``, and a
key given twice is a finding of its own.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.base import ModuleContext, Rule, public_name
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import register


def _literal_all(tree: ast.Module) -> tuple[ast.AST, list[str]] | None:
    """The ``__all__`` assignment node and its entries, if present."""
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                if isinstance(value, (ast.List, ast.Tuple)):
                    entries = [
                        elt.value
                        for elt in value.elts
                        if isinstance(elt, ast.Constant)
                        and isinstance(elt.value, str)
                    ]
                    return node, entries
                return node, []
    return None


def _lazy_exports(tree: ast.Module) -> tuple[ast.AST | None, list[str]]:
    """The module's literal ``_EXPORTS`` table node and its keys, in order
    and with repeats (``None`` and no keys without such a table)."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in targets):
            if isinstance(node.value, ast.Dict):
                return node, [
                    key.value
                    for key in node.value.keys
                    if isinstance(key, ast.Constant) and isinstance(key.value, str)
                ]
    return None, []


def _bound_names(tree: ast.Module) -> set[str]:
    """All names bound at module top level (defs, classes, imports,
    simple assignments)."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*":
                    continue
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            names.add(node.target.id)
    return names


@register
class ExplicitExportsRule(Rule):
    """``__init__.py`` must declare ``__all__`` matching its public names."""

    id = "DPL005"
    name = "explicit-exports"
    description = (
        "Every package __init__.py declares __all__, every entry is bound "
        "(by the module or its lazy _EXPORTS table), and every public "
        "imported/defined/lazily exported name is listed."
    )
    rationale = (
        "__all__ is the audited privacy-review surface: stale entries break "
        "star-imports, and unlisted public names escape review."
    )
    severity = Severity.ERROR

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Yield findings for missing, stale, or drifted __all__."""
        if not ctx.is_package_init:
            return
        found = _literal_all(ctx.tree)
        if found is None:
            yield self.finding(
                ctx,
                None,
                "package __init__.py must declare a literal __all__ listing "
                "its public API",
            )
            return
        node, entries = found
        table, lazy = _lazy_exports(ctx.tree)
        bound = _bound_names(ctx.tree) | set(lazy)
        public = {name for name in bound if public_name(name)}
        for phantom in sorted(set(entries) - bound):
            yield self.finding(
                ctx,
                node,
                f"__all__ lists {phantom!r} which is not bound in this "
                "module nor in its _EXPORTS table (stale export)",
            )
        for hidden in sorted(public - set(entries) - {"annotations"}):
            yield self.finding(
                ctx,
                node,
                f"public name {hidden!r} is bound here but missing from "
                "__all__ (unaudited export)",
            )
        duplicates = {e for e in entries if entries.count(e) > 1}
        for duplicate in sorted(duplicates):
            yield self.finding(
                ctx, node, f"__all__ lists {duplicate!r} more than once"
            )
        for duplicate in sorted({key for key in lazy if lazy.count(key) > 1}):
            yield self.finding(
                ctx, table, f"_EXPORTS maps {duplicate!r} more than once"
            )
