"""Every name the benchmark spine's tracer pins resolves.

``benchmarks/spine/tracing.py`` rebinds the layers' functions by name
for one traced child process: a class row of ``TARGETS`` through
``vars(cls)[attribute]`` (defined on that very class, not inherited),
a module row through the module.  The modules in ``_BINDERS`` are
imported before rebinding.  A refactor that drops or moves a pinned
name fails every traced child with a ``KeyError``; this fails tier-1
first, without starting one.
"""

import importlib

import pytest

from benchmarks.spine.tracing import _BINDERS, TARGETS


@pytest.mark.parametrize(
    "module_name, class_name, attribute",
    [target[:3] for target in TARGETS],
    ids=[
        ".".join(part for part in target[:3] if part) for target in TARGETS
    ],
)
def test_every_target_resolves(module_name, class_name, attribute):
    module = importlib.import_module(module_name)
    if class_name is None:
        assert callable(getattr(module, attribute, None))
    else:
        assert attribute in vars(getattr(module, class_name))


@pytest.mark.parametrize("module_name", _BINDERS)
def test_every_binder_imports(module_name):
    importlib.import_module(module_name)
