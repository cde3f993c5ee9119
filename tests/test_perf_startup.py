"""Import guards: ``import repro`` and the serving path load no SciPy,
and a process loads only the ``repro`` modules it uses.

Importing ``scipy.stats`` and ``scipy.spatial`` took about 1 s of the
1.3 s a process spent on ``import repro``, and neither the serving path
nor the audit needs them. Every SciPy import in the package therefore
sits inside the function that uses it. Each check here runs in a fresh
interpreter, because this test process has long since loaded SciPy:

* importing every module under ``repro`` loads no ``scipy`` module;
* a small ``ReleaseService`` fleet on a ``SimulatedClock`` loads none;
* ``run_audit`` on every family in ``AUDIT_FAMILIES`` loads nothing
  beyond what ``import scipy.special`` loads (its Clopper–Pearson bounds
  call ``scipy.special.betaincinv``);
* running every E1–E19 bench case once through a serial, uncached
  ``BenchmarkEngine`` loads nothing beyond what ``import scipy.special``
  loads: E3's numerical Catoni minimizer runs an in-repo Nelder–Mead
  instead of ``scipy.optimize``, E13's truncated Beta posterior reads
  ``scipy.special.betainc`` and ``betaincinv``, and E16's Gaussian risks
  read ``scipy.special.ndtr``.

A module-level ``import scipy.stats`` added to any ``repro`` module fails
the first check.

The package namespaces are lazy (:mod:`repro._lazy`): a package's exports
load on first access. Two more fresh-interpreter checks hold that in place:

* ``import repro`` loads ``repro`` and ``repro._lazy`` and nothing else;
* a small ``ReleaseService`` fleet, run from a fresh ``import repro``,
  loads no module under ``repro.core``, ``repro.learning``,
  ``repro.private_learning``, ``repro.local_privacy``, ``repro.analysis``
  or ``repro.information.blahut_arimoto``;
* ``python -m repro --help`` loads no ``numpy`` and no ``scipy``.

A module-level ``import repro.core`` added to ``serving/service.py`` fails
the second check.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

_LOADED = (
    "sorted(name for name in sys.modules "
    "if name == 'scipy' or name.startswith('scipy.'))"
)

_FLEET = """
from repro.exceptions import PrivacyBudgetError, ServingTimeoutError
from repro.mechanisms import LaplaceMechanism, PrivacySpec
from repro.serving import ReleaseService, ServiceConfig, SimulatedClock, TenantRegistry

clock = SimulatedClock()
registry = TenantRegistry()
for index in range(2):
    registry.register(f"tenant-{index}", PrivacySpec(1.0), seed=index)
service = ReleaseService(
    registry, clock=clock, config=ServiceConfig(request_timeout=0.2)
)
service.add_mechanism(
    "count", LaplaceMechanism(sum, sensitivity=1.0, epsilon=0.05)
)
outcomes = []

async def client(index):
    for request in range(4):
        await clock.sleep(0.004 * (index + request))
        try:
            await service.submit(f"tenant-{index % 2}", "count", [0, 1, 1])
            outcomes.append("ok")
        except (PrivacyBudgetError, ServingTimeoutError) as error:
            outcomes.append(type(error).__name__)

async def fleet():
    await asyncio.gather(*(client(index) for index in range(8)))
    await service.drain()

clock.run(fleet())
"""

_PROBE = f"""
import asyncio, importlib, json, pkgutil, sys

def loaded():
    return {_LOADED}

def fail(name):
    raise

import repro

for info in pkgutil.walk_packages(repro.__path__, "repro.", onerror=fail):
    if info.name.rsplit(".", 1)[-1] != "__main__":
        importlib.import_module(info.name)
after_import = loaded()

{_FLEET}
after_serving = loaded()

from repro.testing import AUDIT_FAMILIES, build_audit, run_audit

verdicts = [
    run_audit(build_audit(family), n_samples=400, random_state=0).satisfied
    for family in AUDIT_FAMILIES
]
after_audit = loaded()

print(json.dumps({{
    "after_import": after_import,
    "after_serving": after_serving,
    "after_audit": after_audit,
    "outcomes": outcomes,
    "verdicts": verdicts,
}}))
"""


_SWEEP_PROBE = f"""
import json, sys

from repro.experiments import EXPERIMENTS, BenchmarkEngine

engine = BenchmarkEngine(workers=1, cache=None, output_dir=None)
failures = [engine.run_experiment(experiment).failures for experiment in EXPERIMENTS]
print(json.dumps({{"loaded": {_LOADED}, "failures": failures}}))
"""


def _run(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    result = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result


def _python(code: str) -> str:
    return _run("-c", code).stdout


@pytest.fixture(scope="module")
def probe() -> dict:
    return json.loads(_python(_PROBE))


def test_importing_every_repro_module_loads_no_scipy(probe):
    assert probe["after_import"] == []


def test_serving_fleet_loads_no_scipy(probe):
    assert "ok" in probe["outcomes"]
    assert probe["after_serving"] == []


@pytest.fixture(scope="module")
def special() -> set:
    """The modules ``import scipy.special`` loads in a fresh interpreter."""
    return set(json.loads(
        _python(f"import json, sys, scipy.special; print(json.dumps({_LOADED}))")
    ))


def test_audit_loads_only_scipy_special(probe, special):
    loaded = set(probe["after_audit"])
    assert all(probe["verdicts"])
    assert "scipy.special" in loaded
    assert "scipy.stats" not in loaded
    assert loaded <= special, sorted(loaded - special)


def test_paper_sweep_loads_only_scipy_special(special):
    sweep = json.loads(_python(_SWEEP_PROBE))
    loaded = set(sweep["loaded"])
    assert len(sweep["failures"]) == 19 and not any(sweep["failures"])
    assert "scipy.special" in loaded
    assert loaded <= special, sorted(loaded - special)


#: ``import repro`` loads the package namespace and its lazy-export helper.
IMPORT_SET = ["repro", "repro._lazy"]

#: Packages and modules the serving path never needs.
NOT_FOR_SERVING = (
    "repro.core",
    "repro.information.blahut_arimoto",
    "repro.learning",
    "repro.private_learning",
    "repro.local_privacy",
    "repro.analysis",
)

_REPRO = "sorted(m for m in sys.modules if m == 'repro' or m.startswith('repro.'))"

_IMPORT_SET_PROBE = f"""
import asyncio, json, sys

import repro
after_import = {_REPRO}
numpy_on_import = "numpy" in sys.modules
{_FLEET}
print(json.dumps({{
    "after_import": after_import,
    "numpy_on_import": numpy_on_import,
    "after_serving": {_REPRO},
    "outcomes": outcomes,
}}))
"""


@pytest.fixture(scope="module")
def import_sets() -> dict:
    return json.loads(_python(_IMPORT_SET_PROBE))


def test_import_repro_loads_only_the_namespace(import_sets):
    assert import_sets["after_import"] == IMPORT_SET
    assert not import_sets["numpy_on_import"]


def test_serving_fleet_loads_only_what_it_uses(import_sets):
    assert "ok" in import_sets["outcomes"]
    loaded = import_sets["after_serving"]
    assert "repro.serving.service" in loaded
    unexpected = [
        module for module in loaded
        if any(module == banned or module.startswith(banned + ".")
               for banned in NOT_FOR_SERVING)
    ]
    assert unexpected == []


def test_cli_help_loads_no_numeric_package():
    result = _run("-X", "importtime", "-m", "repro", "--help")
    assert "usage: repro" in result.stdout
    imported = {
        line.rsplit("|", 1)[-1].strip()
        for line in result.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "repro.cli" in imported
    numeric = sorted(
        name for name in imported if name.split(".")[0] in ("numpy", "scipy")
    )
    assert numeric == []
