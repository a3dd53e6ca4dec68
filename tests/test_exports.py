"""Every exported name resolves: ``repro.__all__`` and each
subpackage's ``__all__`` list only names the module really binds, so a
definition deleted from the package cannot leave a dangling export."""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + [
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    exported = module.__all__
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(module, name)] == []
