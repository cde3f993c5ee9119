"""DPL006 ``docstring-parameters`` — public API documents its contract.

DP code is contract-heavy: whether ``epsilon`` is per-release or total,
whether ``sensitivity`` is L1 or L2, and which neighbouring relation is
assumed all change the guarantee without changing the signature. A public
function with several parameters and no ``Parameters`` section forces
callers to read the implementation — and mis-set privacy knobs are silent.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.base import (
    ModuleContext,
    Rule,
    public_name,
    walk_functions,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import register


def _documentable_params(func: ast.FunctionDef | ast.AsyncFunctionDef) -> int:
    args = func.args
    names = [
        arg.arg
        for arg in (args.posonlyargs + args.args + args.kwonlyargs)
        if arg.arg not in ("self", "cls")
    ]
    return len(names)


def _has_decorator(func: ast.FunctionDef | ast.AsyncFunctionDef, name: str) -> bool:
    for decorator in func.decorator_list:
        target = decorator
        if isinstance(target, ast.Call):
            target = target.func
        if isinstance(target, ast.Attribute) and target.attr == name:
            return True
        if isinstance(target, ast.Name) and target.id == name:
            return True
    return False


#: Packages whose public API must document itself.
PACKAGES = frozenset(
    {
        "mechanisms",
        "distributions",
        "private_learning",
        "privacy",
        "local_privacy",
        "analysis",
        "testing",
        "observability",
        "serving",
    }
)
#: A Parameters section is required from this many documentable params.
MIN_PARAMS = 2
SECTION_MARKER = "Parameters"


@register
class DocstringParametersRule(Rule):
    """Public defs need docstrings; multi-parameter ones need Parameters."""

    id = "DPL006"
    name = "docstring-parameters"
    description = (
        "Public functions/methods must have a docstring; those with >= "
        f"{MIN_PARAMS} parameters must document them in a Parameters "
        "section (for __init__, on the class docstring)."
    )
    rationale = (
        "Privacy parameters are easy to mis-set silently (per-release vs "
        "total epsilon, L1 vs L2 sensitivity); the Parameters section is "
        "where that contract lives."
    )
    severity = Severity.WARNING

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Yield findings for undocumented public API."""
        if ctx.package not in PACKAGES:
            return
        for func, owner in walk_functions(ctx.tree):
            is_init = func.name == "__init__"
            if func.name.startswith("__") and not is_init:
                continue
            if not (public_name(func.name) or is_init):
                continue
            if owner is not None and not public_name(owner.name):
                continue
            where = (
                f"{owner.name}.{func.name}" if owner is not None else func.name
            )
            # __init__ follows numpydoc convention: parameters are
            # documented on the class docstring.
            doc_node: ast.AST = func
            doc = ast.get_docstring(func)
            if is_init:
                if owner is None:
                    continue
                doc_node = owner
                doc = ast.get_docstring(owner)
                where = owner.name
            if doc is None:
                yield self.finding(
                    ctx, doc_node, f"public API {where} has no docstring"
                )
                continue
            if _has_decorator(func, "property") or _has_decorator(
                func, "setter"
            ):
                continue
            # The Parameters contract is enforced where it lives by
            # numpydoc convention: free functions and class docstrings.
            # Plain methods only need a docstring.
            if owner is not None and not is_init:
                continue
            params = _documentable_params(func)
            if params >= MIN_PARAMS and SECTION_MARKER not in doc:
                yield self.finding(
                    ctx,
                    func,
                    f"{where} takes {params} parameters "
                    f"but its docstring has no {SECTION_MARKER!r} section",
                )
