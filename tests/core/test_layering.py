"""``repro.core`` sits below the experiment harness: nothing under it —
not even a lazy import inside a worker process — may reach up into
``repro.experiments``.  The process runtime is handed its world builder
and workload factories as callables instead.  Two census guards ride
along: module-level switches and ``BatchPolicy`` knobs."""

import ast
from dataclasses import fields
from pathlib import Path

import repro.core
from repro.maintenance.grouping import BatchPolicy

CORE = Path(repro.core.__file__).parent


def _imported_modules(path: Path):
    """Absolute dotted names of everything ``path`` imports, anywhere in
    the file (module level or inside functions)."""
    package = ["repro", "core"]
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            keep = len(package) - node.level + 1
            base = package[:keep] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_core_never_imports_the_experiment_harness():
    offenders = {
        f"{path.name}: {module}"
        for path in sorted(CORE.glob("*.py"))
        for module in _imported_modules(path)
        if module.startswith("repro.experiments")
    }
    assert not offenders


def test_the_walk_resolves_relative_imports():
    # Guard the guard: the walker must see a lazy ``from ..recovery``.
    modules = set(_imported_modules(CORE / "sharding.py"))
    assert "repro.recovery" in modules
    assert "repro.core.scheduler" in modules


def test_the_executor_mode_is_the_only_module_level_switch():
    """One process-global mutable setting, ``set_executor_mode``'s: a
    second ``global`` statement under ``src/repro`` is a new switch."""
    globals_declared = {
        f"{path.relative_to(CORE.parent)}: {name}"
        for path in sorted(CORE.parent.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Global)
        for name in node.names
    }
    assert globals_declared == {"relational/executor.py: _executor_mode"}


def test_batch_policy_has_one_knob():
    assert [field.name for field in fields(BatchPolicy)] == ["max_batch_size"]
