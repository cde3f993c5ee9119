"""Lazy package namespaces: a package's exports load on first access.

Every library package ``__init__`` names its exports in one literal table,
``_EXPORTS``, mapping each exported name to the module that defines it,
and hands the table to :func:`attach`. Importing the package then runs no
submodule: ``from repro.mechanisms import LaplaceMechanism`` imports
:mod:`repro.mechanisms.laplace` and nothing else, so a process compiles and
runs only the modules it uses (PEP 562 module ``__getattr__``/``__dir__``).

A resolved name is stored in the package's globals, so after its first
access it is an ordinary module attribute. ``from package import *`` goes
through ``__all__`` and resolves every export. Names outside the table
fall back to the package's submodules (``repro.mechanisms`` after
``import repro``).

dplint's DPL005 reads ``_EXPORTS`` by name: its keys count as bound names
of the package, and each must be listed in ``__all__``.

This module imports only the standard library.
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable


def attach(
    package: str, exports: dict[str, str]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """Build the module ``__getattr__`` and ``__dir__`` of a lazy package.

    Parameters
    ----------
    package:
        The package's ``__name__``; the package must be mid-import or
        imported (it is looked up in :data:`sys.modules`).
    exports:
        Exported name → dotted name of the module that defines it.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module = exports.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
            namespace[name] = value
            return value
        if not name.startswith("_"):
            submodule = f"{package}.{name}"
            try:
                return importlib.import_module(submodule)
            except ModuleNotFoundError as error:
                if error.name != submodule:
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | exports.keys())

    return __getattr__, __dir__
