"""Every exported name resolves: ``repro.__all__`` and each
subpackage's ``__all__`` list only names the module really binds, so a
definition deleted from the package cannot leave a dangling export.

``repro``, ``repro.experiments`` and ``repro.sources`` bind their
exports on first use, so a warehouse's cold start loads only the
modules its world runs: building a memory-backend testbed loads no
figure or ablation harness, no facade and no sqlite source, nor the
definition-less ``repro.views.audit`` that only the spine's tracer
imports.
Each package still imports on its own, first in a fresh interpreter."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGES = ["repro"] + [
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
]

SRC = Path(repro.__file__).resolve().parent.parent

#: modules a memory-backend testbed build must not load
NOT_ON_THE_COLD_PATH = (
    "repro.dyda",
    "repro.experiments.ablations",
    "repro.experiments.fig08",
    "repro.experiments.fig09",
    "repro.experiments.fig10",
    "repro.experiments.fig11",
    "repro.experiments.fig12",
    "repro.experiments.runner",
    "repro.experiments.runtime_abl",
    "repro.experiments.table",
    "repro.sources.sqlite_source",
    "repro.views.audit",
)

_BUILD = """
import json, sys
from repro.core.strategies import PESSIMISTIC
from repro.experiments.testbed import build_testbed
build_testbed(PESSIMISTIC, tuples_per_relation=20)
print(json.dumps(sorted(sys.modules)))
"""


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    exported = module.__all__
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(module, name)] == []


def test_a_testbed_build_loads_no_harness():
    child = _fresh_python(_BUILD)
    assert child.returncode == 0, child.stderr.decode()
    loaded = set(json.loads(child.stdout))
    assert "repro.experiments.testbed" in loaded  # the probe ran
    assert sorted(loaded.intersection(NOT_ON_THE_COLD_PATH)) == []


@pytest.mark.parametrize("package", PACKAGES)
def test_every_package_imports_first(package):
    child = _fresh_python(f"import {package}")
    assert child.returncode == 0, child.stderr.decode()
