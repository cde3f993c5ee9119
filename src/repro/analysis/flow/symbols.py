"""Project-wide symbol tables and import-aware name resolution.

:class:`ProjectSymbols` answers "what does the dotted name ``X.y`` written
in module ``M`` actually refer to?" by combining each module's import
aliases with the definition tables of every analyzed module. Resolution is
best-effort and purely syntactic — precise enough for the flow rules, which
only need to recognize calls into known constructors and sanitizers.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.analysis.flow.project import ModuleInfo, ProjectModel

__all__ = ["Symbol", "ModuleSymbols", "ProjectSymbols"]


@dataclass(frozen=True)
class Symbol:
    """One top-level definition in an analyzed module.

    Parameters
    ----------
    qualname:
        Fully-qualified dotted name, e.g. ``"repro.privacy.audit.Auditor"``.
    module:
        Dotted name of the defining module.
    name:
        Local name inside the module (class/function/variable name, or
        ``"Class.method"`` for methods).
    kind:
        ``"class"``, ``"function"``, ``"method"``, or ``"assignment"``.
    node:
        The defining AST node.
    """

    qualname: str
    module: str
    name: str
    kind: str
    node: ast.AST


class ModuleSymbols:
    """Top-level definitions of a single module, keyed by local name."""

    def __init__(self, info: "ModuleInfo") -> None:
        self.module_name = info.name
        self.by_name: dict[str, Symbol] = {}
        if info.tree is None:
            return
        for node in info.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add(node.name, "function", node)
            elif isinstance(node, ast.ClassDef):
                self._add(node.name, "class", node)
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._add(f"{node.name}.{item.name}", "method", item)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self._add(target.id, "assignment", node)
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name):
                    self._add(node.target.id, "assignment", node)

    def _add(self, name: str, kind: str, node: ast.AST) -> None:
        self.by_name[name] = Symbol(
            qualname=f"{self.module_name}.{name}",
            module=self.module_name,
            name=name,
            kind=kind,
            node=node,
        )


class ProjectSymbols:
    """Import-aware resolver over every module's symbol table.

    Parameters
    ----------
    project:
        The parsed project to index.
    """

    def __init__(self, project: "ProjectModel") -> None:
        self._project = project
        self._tables: dict[str, ModuleSymbols] = {
            info.name: ModuleSymbols(info) for info in project.modules
        }

    def canonicalize(self, module_name: str, name: str) -> str:
        """Canonical dotted name for ``name`` as written inside a module.

        Substitutes the first segment through the module's import aliases
        (``np.array`` → ``numpy.array``); names defined in the module
        itself are qualified with the module's dotted name.

        Parameters
        ----------
        module_name:
            Dotted name of the module the reference appears in.
        name:
            The dotted name exactly as written in source.
        """
        info = self._project.module(module_name)
        if info is None:
            return name
        head, _, rest = name.partition(".")
        table = self._tables.get(module_name)
        if table is not None and head in table.by_name and head not in info.imports.aliases:
            local = table.by_name[head].qualname
            return f"{local}.{rest}" if rest else local
        return info.imports.resolve(name)
