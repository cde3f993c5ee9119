"""DPL001 ``rng-discipline`` — all randomness flows through a Generator.

Calling ``numpy.random.*`` module functions (including ``default_rng``) or
the stdlib ``random`` module anywhere in the library creates a
side channel of unseeded, unauditable randomness: a mechanism whose noise
does not come from the caller-injected :class:`numpy.random.Generator`
cannot be made reproducible for audits, and global-state RNGs can be
reseeded by unrelated code, correlating "independent" noise draws. Every
sampling site must take the rng produced by
``repro.utils.validation.check_random_state``.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.base import ModuleContext, Rule, dotted_name
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import register


#: The single sanctioned Generator factory, the one module allowed to
#: touch ``numpy.random`` directly (relative to the ``repro`` root).
ALLOWED_MODULES = frozenset({"utils/validation.py"})


@register
class RngDisciplineRule(Rule):
    """Forbid ``numpy.random.*`` / ``random.*`` calls outside the factory."""

    id = "DPL001"
    name = "rng-discipline"
    description = (
        "No numpy.random.* or stdlib random.* calls outside "
        "repro.utils.validation; inject a numpy.random.Generator instead."
    )
    rationale = (
        "Noise drawn outside the injected Generator is unauditable and may "
        "share global state with unrelated code, silently correlating "
        "draws that DP proofs require to be independent."
    )
    severity = Severity.ERROR

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Yield a finding for each numpy.random/random call."""
        if not ctx.in_library or ctx.module_relpath in ALLOWED_MODULES:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            resolved = ctx.imports.resolve(name)
            if resolved.startswith("numpy.random.") or (
                resolved.startswith("random.") and "." not in resolved[7:]
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"call to {resolved} bypasses the injected Generator; "
                    "accept a random_state argument and route it through "
                    "repro.utils.validation.check_random_state",
                )
