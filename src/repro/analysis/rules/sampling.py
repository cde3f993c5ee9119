"""DPL003 ``no-naive-sampling`` — heavy-tailed noise comes from one place.

Every Laplace/exponential/Gumbel/Cauchy draw must go through the noise-law
objects in :mod:`repro.distributions` (``LaplaceNoise``, ``GumbelNoise``,
``CauchyNoise``, …); mechanisms may not call ``rng.laplace`` /
``rng.exponential`` / ``rng.gumbel`` directly or hand-roll a
``log(uniform(...))`` inverse CDF. The sanctioned samplers themselves are
plain numpy draws today, so the rule does not make sampling safe against
floating-point attacks (Mironov 2012). What it does is keep every
heavy-tailed draw in one module, the one place a snapping-safe sampler
would have to be installed for it to cover every mechanism. No such
sampler exists yet. No runtime test can see a violation: inlining
``rng.laplace`` into a mechanism draws the identical bits.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.base import ModuleContext, Rule, dotted_name
from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import register


#: RNG method names whose direct use is reserved to the sampler modules.
METHODS = frozenset(
    {"laplace", "exponential", "standard_exponential", "gumbel", "standard_cauchy"}
)
#: Modules (relative to the ``repro`` root) allowed to draw heavy-tailed
#: variates directly.
SANCTIONED_MODULES = frozenset(
    {
        "distributions/sampling.py",
        "distributions/continuous.py",
        "distributions/discrete.py",
    }
)


@register
class NoNaiveSamplingRule(Rule):
    """Forbid direct heavy-tailed RNG method calls outside distributions/."""

    id = "DPL003"
    name = "no-naive-sampling"
    description = (
        "Laplace/exponential/Gumbel variates must come from the sanctioned "
        "samplers in repro.distributions, not ad-hoc rng method calls."
    )
    rationale = (
        "Keeping every heavy-tailed draw in one module gives a single place "
        "to install a floating-point-safe sampler (Mironov's snapping "
        "attack targets naive double-precision Laplace noise); today's "
        "sanctioned samplers are plain numpy draws, so the rule confines "
        "the attack surface rather than closing it."
    )
    severity = Severity.ERROR

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Yield findings for unsanctioned heavy-tailed draws."""
        if not ctx.in_library or ctx.module_relpath in SANCTIONED_MODULES:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in METHODS
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"direct .{node.func.attr}() draw outside the sanctioned "
                    "samplers; use the noise laws in repro.distributions",
                )
            elif self._is_log_of_uniform(node, ctx):
                yield self.finding(
                    ctx,
                    node,
                    "log(uniform(...)) inverse-CDF idiom implements naive "
                    "floating-point heavy-tailed sampling; use the "
                    "sanctioned samplers in repro.distributions",
                )

    @staticmethod
    def _is_log_of_uniform(node: ast.Call, ctx: ModuleContext) -> bool:
        """Whether ``node`` is ``log(... uniform(...) ...)``."""
        name = dotted_name(node.func)
        if name is None:
            return False
        resolved = ctx.imports.resolve(name)
        if resolved.rsplit(".", 1)[-1] not in ("log", "log1p"):
            return False
        for arg in node.args:
            for child in ast.walk(arg):
                if (
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr in ("uniform", "random")
                ):
                    return True
        return False
