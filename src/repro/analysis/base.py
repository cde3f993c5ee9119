"""Rule framework: the context handed to rules and the ``Rule`` interface.

A rule receives one parsed module at a time wrapped in a
:class:`ModuleContext` (AST, source lines, resolved package location, and
the whole-program project) and yields
:class:`~repro.analysis.findings.Finding` objects. Shared AST utilities —
dotted-name rendering and import-alias resolution — live here so individual
rules stay small.
"""

from __future__ import annotations

import abc
import ast
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.analysis.findings import Finding, Severity

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.analysis.flow.project import ProjectModel

#: Root package name used to resolve a file's location inside the library.
PACKAGE_ROOT = "repro"


def package_parts(path: str) -> tuple[str, ...]:
    """Path components below the ``repro`` package root.

    For ``/repo/src/repro/mechanisms/laplace.py`` this is
    ``("mechanisms", "laplace.py")``. Synthetic relative paths used by the
    rule unit tests (``"mechanisms/snippet.py"``) pass through unchanged,
    so fixtures can target package-scoped rules without a real tree.

    Parameters
    ----------
    path:
        Absolute or relative path to a Python file.
    """
    parts = Path(path).parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == PACKAGE_ROOT:
            below = parts[index + 1 :]
            if below:
                return below
    return parts


def dotted_name(node: ast.AST) -> str | None:
    """Render an ``ast.Name``/``ast.Attribute`` chain as ``"a.b.c"``.

    Returns ``None`` for anything that is not a pure attribute chain
    (subscripts, calls, literals …).
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class ImportTracker(ast.NodeVisitor):
    """Map local names to the canonical modules/objects they alias.

    ``import numpy as np`` maps ``np → numpy``; ``from numpy import random
    as nr`` maps ``nr → numpy.random``; ``from random import gauss`` maps
    ``gauss → random.gauss``. :meth:`resolve` canonicalizes a dotted name
    by substituting its first segment, so ``np.random.laplace`` becomes
    ``numpy.random.laplace`` regardless of the alias used.
    """

    def __init__(self, tree: ast.AST) -> None:
        self.aliases: dict[str, str] = {}
        self.visit(tree)

    def visit_Import(self, node: ast.Import) -> None:
        """Record ``import a.b [as c]`` aliases."""
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self.aliases[local] = target

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        """Record ``from a import b [as c]`` aliases."""
        if node.module is None or node.level:
            return  # relative imports never hide numpy/random
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            self.aliases[local] = f"{node.module}.{alias.name}"

    def resolve(self, name: str) -> str:
        """Canonical dotted name for ``name`` under the module's imports."""
        head, _, rest = name.partition(".")
        head = self.aliases.get(head, head)
        return f"{head}.{rest}" if rest else head


@dataclass
class ModuleContext:
    """Everything a rule may inspect about one module.

    Parameters
    ----------
    path:
        Path string used in findings (as supplied by the caller).
    tree:
        Parsed ``ast.Module``.
    source_lines:
        The module's source split into lines (1-based access via
        :meth:`line`).
    package_parts:
        Path components *below* the ``repro`` package root, e.g.
        ``("mechanisms", "laplace.py")``. Synthetic paths used in tests
        (``"mechanisms/snippet.py"``) resolve the same way.
    project:
        Whole-program :class:`~repro.analysis.flow.project.ProjectModel`
        covering every module in the analyzed set.
    """

    path: str
    tree: ast.Module
    source_lines: list[str]
    package_parts: tuple[str, ...]
    project: "ProjectModel"
    _imports: ImportTracker | None = field(default=None, repr=False)

    @property
    def imports(self) -> ImportTracker:
        """Lazily-built import alias tracker for this module."""
        if self._imports is None:
            self._imports = ImportTracker(self.tree)
        return self._imports

    @property
    def package(self) -> str:
        """First-level package the module lives in (``""`` at the root)."""
        return self.package_parts[0] if len(self.package_parts) > 1 else ""

    @property
    def in_library(self) -> bool:
        """Whether the module lives inside the ``repro`` package.

        Scripts that drive the library from outside it (benchmarks,
        examples) seed their own Generators and print what they measure,
        so the release-path rules DPL001, DPL003 and DPL007 skip them.
        """
        return PACKAGE_ROOT in Path(self.path).parts[:-1]

    @property
    def module_relpath(self) -> str:
        """Module path relative to the ``repro`` package root."""
        return "/".join(self.package_parts)

    @property
    def is_package_init(self) -> bool:
        """Whether this module is an ``__init__.py``."""
        return self.package_parts[-1] == "__init__.py"

    def line(self, lineno: int) -> str:
        """Source text of 1-based line ``lineno`` (empty when out of range)."""
        if 1 <= lineno <= len(self.source_lines):
            return self.source_lines[lineno - 1]
        return ""


class Rule(abc.ABC):
    """One static-analysis check.

    Subclasses define the class attributes ``id`` (stable ``DPLxxx``
    identifier), ``name`` (kebab-case slug usable in pragmas),
    ``description``, ``rationale`` (the DP failure mode the rule guards
    against) and ``severity``, and implement :meth:`check` as a generator
    of findings. A rule's scope and knobs are constants of its module.
    """

    id: str = ""
    name: str = ""
    description: str = ""
    rationale: str = ""
    severity: Severity = Severity.ERROR

    @abc.abstractmethod
    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Yield findings for one module."""

    # -- helpers shared by every rule ------------------------------------

    def finding(
        self, ctx: ModuleContext, node: ast.AST | None, message: str
    ) -> Finding:
        """Build a finding at ``node`` (or the module top when ``None``)."""
        line = getattr(node, "lineno", 1) if node is not None else 1
        end_line = getattr(node, "end_lineno", None) if node is not None else None
        return Finding(
            path=ctx.path,
            line=line,
            column=getattr(node, "col_offset", 0) if node is not None else 0,
            rule_id=self.id,
            rule_name=self.name,
            severity=self.severity,
            message=message,
            end_line=end_line if end_line is not None and end_line > line else None,
        )


def public_name(name: str) -> bool:
    """Whether ``name`` is part of the public surface (no leading ``_``)."""
    return not name.startswith("_")


def walk_functions(
    tree: ast.Module,
) -> Iterator[tuple[ast.FunctionDef | ast.AsyncFunctionDef, ast.ClassDef | None]]:
    """Yield every function definition with its enclosing class (or None).

    Nested functions (defined inside another function body) are skipped —
    they are implementation details, not API surface.
    """
    defs: Iterable = (
        (node, None)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    )
    yield from defs
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item, node
