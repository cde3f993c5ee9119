"""DPL002 ``validate-privacy-params`` — ε/δ/sensitivity must be validated.

A mechanism constructed with ``epsilon=-1``, ``delta=float("nan")`` or zero
sensitivity produces noise scales that are negative, NaN, or infinite —
the release then either crashes deep inside numpy or, worse, silently adds
no noise while still claiming a privacy guarantee. Every public function
or constructor that accepts one of these parameters must pass it through a
``repro.utils.validation`` checker (or into ``PrivacySpec``/
``from_privacy``, which validate internally) before use.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.base import (
    ModuleContext,
    Rule,
    dotted_name,
    public_name,
    walk_functions,
)
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import register


def _leaf_name(call: ast.Call) -> str:
    name = dotted_name(call.func)
    if name is None:
        return ""
    return name.rsplit(".", 1)[-1]


def _names_in(node: ast.AST) -> set[str]:
    return {
        child.id for child in ast.walk(node) if isinstance(child, ast.Name)
    }


#: Packages whose public API must validate its privacy parameters.
PACKAGES = frozenset(
    {
        "mechanisms",
        "distributions",
        "private_learning",
        "privacy",
        "local_privacy",
        "testing",
        "observability",
        "serving",
    }
)
PARAM_NAMES = frozenset({"epsilon", "delta", "sensitivity"})
#: Call targets (matched on the final dotted segment) that count as
#: validating an argument passed to them.
VALIDATORS = frozenset(
    {
        "check_positive",
        "check_in_range",
        "check_array",
        "check_probability_vector",
        "check_epsilon_delta",
        "PrivacySpec",
        "from_privacy",
    }
)


@register
class ValidatePrivacyParamsRule(Rule):
    """Require a sanctioned validation call for each privacy parameter."""

    id = "DPL002"
    name = "validate-privacy-params"
    description = (
        "Public functions accepting epsilon/delta/sensitivity must pass "
        "each through repro.utils.validation (or PrivacySpec)."
    )
    rationale = (
        "Unvalidated privacy parameters (negative, zero, NaN, inf) yield "
        "degenerate noise scales: the mechanism may add no noise at all "
        "while its PrivacySpec still advertises a guarantee."
    )
    severity = Severity.ERROR

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Yield a finding per unvalidated privacy parameter."""
        if ctx.package not in PACKAGES:
            return
        for func, owner in walk_functions(ctx.tree):
            is_init = func.name == "__init__"
            if not (public_name(func.name) or is_init):
                continue
            if owner is not None and not public_name(owner.name):
                continue
            declared = {
                arg.arg
                for arg in (
                    func.args.posonlyargs + func.args.args + func.args.kwonlyargs
                )
            } & PARAM_NAMES
            if not declared:
                continue
            validated: set[str] = set()
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                if _leaf_name(node) not in VALIDATORS:
                    continue
                referenced = set()
                for arg in node.args:
                    referenced |= _names_in(arg)
                for keyword in node.keywords:
                    referenced |= _names_in(keyword.value)
                validated |= referenced & declared
            for missing in sorted(declared - validated):
                where = (
                    f"{owner.name}.{func.name}" if owner is not None else func.name
                )
                yield self.finding(
                    ctx,
                    func,
                    f"{where} accepts {missing!r} but never passes it "
                    "through a validator "
                    f"({', '.join(sorted(VALIDATORS))})",
                )
