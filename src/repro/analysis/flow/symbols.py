"""Project-wide import-aware name resolution.

:class:`ProjectSymbols` answers "what does the dotted name ``X.y`` written
in module ``M`` actually refer to?" by combining each module's import
aliases with the names every analyzed module defines at top level.
Resolution is best-effort and purely syntactic — precise enough for the
flow rules, which only need to recognize calls into known constructors
and sanitizers.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.analysis.flow.project import ProjectModel

__all__ = ["ProjectSymbols"]


def _top_level_names(tree: ast.Module | None) -> frozenset[str]:
    """Names a module binds at top level by ``def``, ``class`` or assignment.

    Parameters
    ----------
    tree:
        The parsed module, or ``None`` for a file that does not parse.
    """
    names: set[str] = set()
    for node in tree.body if tree is not None else ():
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(
                target.id for target in node.targets if isinstance(target, ast.Name)
            )
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return frozenset(names)


class ProjectSymbols:
    """Import-aware resolver over every module's top-level names.

    Parameters
    ----------
    project:
        The parsed project to index.
    """

    def __init__(self, project: "ProjectModel") -> None:
        self._project = project
        self._defined: dict[str, frozenset[str]] = {
            info.name: _top_level_names(info.tree) for info in project.modules
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
        head = name.partition(".")[0]
        defined = self._defined.get(module_name, ())
        if head in defined and head not in info.imports.aliases:
            return f"{module_name}.{name}"
        return info.imports.resolve(name)
