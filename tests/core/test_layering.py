"""``repro.core`` sits below the experiment harness: nothing under it —
not even a lazy import inside a worker process — may reach up into
``repro.experiments``.  The process runtime is handed its world builder
and workload factories as callables instead."""

import ast
from pathlib import Path

import repro.core

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
