"""Whole-program project model for the ``dpflow`` analyzer.

:class:`ProjectModel` parses every module of the analyzed set exactly once
and exposes the shared artifacts the flow rules build on: the module table
(dotted name → parsed AST) and the project-wide name resolver. Serial and
parallel analyzers both construct one project per process, so a file is
never re-parsed per rule.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro.analysis.base import PACKAGE_ROOT, ImportTracker, package_parts


def module_name_for(parts: Sequence[str]) -> str:
    """Dotted module name for path components below the package root.

    ``("privacy", "audit.py")`` becomes ``"repro.privacy.audit"``;
    ``("privacy", "__init__.py")`` becomes ``"repro.privacy"``. Synthetic
    fixture paths (``"mechanisms/snippet.py"``) resolve the same way so
    unit tests get a working project without a real tree.

    Parameters
    ----------
    parts:
        Path components as produced by
        :func:`repro.analysis.base.package_parts`.
    """
    pieces = [part for part in parts if part not in ("", ".")]
    if pieces and pieces[-1].endswith(".py"):
        stem = pieces[-1][: -len(".py")]
        pieces = pieces[:-1] if stem == "__init__" else pieces[:-1] + [stem]
    return ".".join([PACKAGE_ROOT, *pieces]) if pieces else PACKAGE_ROOT


@dataclass
class ModuleInfo:
    """One parsed module of the analyzed project.

    Parameters
    ----------
    path:
        Path string exactly as supplied by the caller (used in findings).
    name:
        Dotted module name, e.g. ``"repro.privacy.audit"``.
    package_parts:
        Path components below the ``repro`` package root.
    source:
        Raw module source text.
    tree:
        Parsed AST, or ``None`` when the file does not parse.
    error:
        The :class:`SyntaxError` raised by parsing, when ``tree`` is None.
    """

    path: str
    name: str
    package_parts: tuple[str, ...]
    source: str
    tree: ast.Module | None
    error: SyntaxError | None = None
    _imports: ImportTracker | None = field(default=None, repr=False)

    @property
    def imports(self) -> ImportTracker:
        """Lazily-built import alias tracker for this module."""
        if self._imports is None:
            if self.tree is None:
                self._imports = ImportTracker(ast.Module(body=[], type_ignores=[]))
            else:
                self._imports = ImportTracker(self.tree)
        return self._imports

    @property
    def source_lines(self) -> list[str]:
        """The module source split into lines."""
        return self.source.splitlines()


class ProjectModel:
    """All modules of one analyzer invocation, parsed once.

    Parameters
    ----------
    modules:
        Parsed modules in deterministic (collection) order.
    """

    def __init__(self, modules: Sequence[ModuleInfo]) -> None:
        self.modules: tuple[ModuleInfo, ...] = tuple(modules)
        self._by_name: dict[str, ModuleInfo] = {}
        for info in self.modules:
            # First definition wins on (synthetic) name collisions so
            # resolution stays deterministic under any file ordering.
            self._by_name.setdefault(info.name, info)
        self._symbols: "object | None" = None

    @classmethod
    def from_sources(cls, pairs: Iterable[tuple[str, str]]) -> "ProjectModel":
        """Build a project from in-memory ``(source, path)`` pairs.

        Parameters
        ----------
        pairs:
            Module source text and the (possibly virtual) path it lives at.
        """
        modules = []
        for source, path in pairs:
            parts = package_parts(path)
            tree: ast.Module | None
            error: SyntaxError | None
            try:
                tree, error = ast.parse(source, filename=path), None
            except SyntaxError as exc:
                tree, error = None, exc
            modules.append(
                ModuleInfo(
                    path=path,
                    name=module_name_for(parts),
                    package_parts=parts,
                    source=source,
                    tree=tree,
                    error=error,
                )
            )
        return cls(modules)

    def module(self, name: str) -> ModuleInfo | None:
        """The module registered under dotted ``name`` (or ``None``)."""
        return self._by_name.get(name)

    @property
    def symbols(self) -> "ProjectSymbols":
        """Lazily-built project-wide symbol resolver."""
        if self._symbols is None:
            from repro.analysis.flow.symbols import ProjectSymbols

            self._symbols = ProjectSymbols(self)
        return self._symbols  # type: ignore[return-value]

    def __len__(self) -> int:
        return len(self.modules)

    def __repr__(self) -> str:
        return f"ProjectModel({len(self.modules)} modules)"

