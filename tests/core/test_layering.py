"""``repro.core`` sits below the experiment harness: nothing under it —
not even a lazy import inside a worker process — may reach up into
``repro.experiments``.  The process runtime is handed its world builder
and workload factories as callables instead.  Three census guards ride
along: no module-level switches, ``BatchPolicy`` knobs, and definitions
that only tests reach."""

import ast
import re
from collections import defaultdict
from dataclasses import fields
from pathlib import Path

import repro.core
from repro.maintenance.grouping import BatchPolicy

CORE = Path(repro.core.__file__).parent
SRC = CORE.parent
REPO = SRC.parent.parent


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


def test_no_module_level_switch_under_src():
    """No process-global mutable setting: a ``global`` statement under
    ``src/repro`` is a switch every caller in the process shares."""
    globals_declared = {
        f"{path.relative_to(CORE.parent)}: {name}"
        for path in sorted(CORE.parent.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Global)
        for name in node.names
    }
    assert not globals_declared


def test_batch_policy_has_one_knob():
    assert [field.name for field in fields(BatchPolicy)] == ["max_batch_size"]


# --- definitions only tests reach ---------------------------------------

#: Kept on purpose although nothing outside ``tests/`` reaches them.
TEST_ONLY_ALLOWED = {
    "views/audit.py: AuditingScheduler":
        "the spine's tracer imports repro.views.audit; an independent "
        "oracle replaces its body (ROADMAP 1(b))",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")


def _definitions(tree):
    """``(qualified name, node)`` for every module-level function and
    class and every function or class in a class body."""
    def walk(body, prefix):
        for node in body:
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                yield prefix + node.name, node
                if isinstance(node, ast.ClassDef):
                    yield from walk(node.body, f"{prefix}{node.name}.")

    return walk(tree.body, "")


def _uses(tree):
    """``(name, line)`` for every name the module reads: a loaded
    ``Name`` or ``Attribute``, or a component of a dotted-path string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(
            node.ctx, ast.Load
        ):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _DOTTED.fullmatch(node.value):
                for part in node.value.split("."):
                    yield part, node.lineno


def _test_only_definitions():
    """Definitions under ``src/repro`` whose name nothing outside
    ``tests/`` reads: not ``src/`` outside the definition's own body,
    not ``benchmarks/`` or ``examples/``.  By name, so a name defined
    twice passes when either is used; dunders are implicit protocol."""
    trees = {
        path.relative_to(SRC).as_posix(): ast.parse(path.read_text())
        for path in sorted(SRC.rglob("*.py"))
    }
    used_at = defaultdict(list)
    for module, tree in trees.items():
        for name, line in _uses(tree):
            used_at[name].append((module, line))
    outside = set()
    for folder in ("benchmarks", "examples"):
        for path in (REPO / folder).rglob("*.py"):
            outside.update(re.findall(r"\w+", path.read_text()))
    flagged = {}
    for module, tree in trees.items():
        for qualified, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if name in outside:
                continue
            span = range(node.lineno, node.end_lineno + 1)
            if any(
                where != module or line not in span
                for where, line in used_at[name]
            ):
                continue
            flagged[f"{module}: {qualified}"] = span
    return flagged


def test_src_definitions_have_a_non_test_caller():
    """Oracles and test helpers live in ``tests/``: a definition in the
    package that only tests call is either dead or a second statement of
    a rule the system runs elsewhere."""
    assert set(_test_only_definitions()) == set(TEST_ONLY_ALLOWED)
