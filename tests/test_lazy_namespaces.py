"""Lazy package namespaces: every export resolves, once, to its definition.

Each library package names its exports in a literal ``_EXPORTS`` table
(name → defining module) and resolves them on first access through
:func:`repro._lazy.attach`. These tests pin the contract: every table
entry is the object its module defines, a resolved name is cached in the
package globals, ``dir`` and star-imports see every export, submodules
stay reachable as attributes, and the one name that is also a submodule
(``repro.information.entropy``) stays the function whatever was imported
first.
"""

from __future__ import annotations

import importlib
import json
import os
import pathlib
import subprocess
import sys
import types

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

PACKAGES = [
    "repro",
    "repro.core",
    "repro.distributions",
    "repro.experiments",
    "repro.information",
    "repro.learning",
    "repro.local_privacy",
    "repro.mechanisms",
    "repro.observability",
    "repro.privacy",
    "repro.private_learning",
    "repro.serving",
    "repro.testing",
    "repro.utils",
]


def _python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=env, cwd=str(REPO_ROOT), timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("name", PACKAGES)
def test_every_table_entry_is_its_modules_object(name):
    package = importlib.import_module(name)
    for export, module in package._EXPORTS.items():
        defined = vars(importlib.import_module(module))[export]
        assert getattr(package, export) is defined, f"{name}.{export}"
        assert vars(package)[export] is defined, f"{name}.{export} not cached"
        if isinstance(defined, (type, types.FunctionType)):
            assert defined.__module__ == module, f"{name}.{export}"


@pytest.mark.parametrize("name", PACKAGES)
def test_all_is_the_table_plus_eager_names(name):
    package = importlib.import_module(name)
    eager = {"entropy"} if name == "repro.information" else set()
    if name == "repro":
        eager.add("__version__")
    assert set(package.__all__) == set(package._EXPORTS) | eager
    assert not eager & set(package._EXPORTS)


@pytest.mark.parametrize("name", PACKAGES)
def test_dir_and_star_import_see_every_export(name):
    package = importlib.import_module(name)
    assert set(package.__all__) <= set(dir(package))
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(package.__all__) <= set(namespace)


def test_unknown_names_raise_attribute_error():
    import repro.mechanisms

    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        repro.mechanisms.no_such_name
    with pytest.raises(AttributeError, match="no attribute '_private'"):
        repro.mechanisms._private
    assert not hasattr(repro, "no_such_subpackage")


def test_fresh_import_resolves_names_and_submodules_on_demand():
    probe = """
import json, sys

def loaded():
    return sorted(m for m in sys.modules if m == "repro" or m.startswith("repro."))

import repro
first = loaded()
laplace = repro.LaplaceMechanism
after_name = loaded()
sub = repro.mechanisms.geometric.GeometricMechanism.__name__
print(json.dumps({
    "first": first, "after_name": after_name, "sub": sub,
    "cached": "LaplaceMechanism" in vars(repro),
}))
"""
    result = json.loads(_python(probe))
    assert result["first"] == ["repro", "repro._lazy"]
    assert "repro.mechanisms.laplace" in result["after_name"]
    assert not any(
        m.startswith(("repro.core", "repro.learning", "repro.testing"))
        for m in result["after_name"]
    )
    assert result["sub"] == "GeometricMechanism"
    assert result["cached"]


def test_entropy_stays_the_function_after_its_submodule_is_imported():
    probe = """
import json, types
import repro.information.entropy
import repro.information.divergences
from repro.information import entropy
import repro
print(json.dumps({
    "package": isinstance(entropy, types.FunctionType),
    "top": isinstance(repro.entropy, types.FunctionType),
    "submodule": isinstance(
        __import__("sys").modules["repro.information.entropy"], types.ModuleType
    ),
}))
"""
    assert json.loads(_python(probe)) == {
        "package": True, "top": True, "submodule": True,
    }
