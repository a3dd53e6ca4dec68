"""``repro.core`` sits below the experiment harness: nothing under it —
not even a lazy import inside a worker process — may reach up into
``repro.experiments``.  The process runtime is handed its world builder
and workload factories as callables instead.  Three census guards ride
along: no module-level switches or shared mutable instances,
``BatchPolicy`` knobs, and definitions that only tests reach."""

import ast
import importlib
import pkgutil
import re
from collections import defaultdict
from dataclasses import fields
from enum import Enum
from pathlib import Path

import repro
import repro.core
from repro.core.strategies import PESSIMISTIC
from repro.maintenance.grouping import BatchPolicy
from repro.relational.plan import PlanCache
from repro.sim.metrics import Metrics

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


def _shared_instances(modules) -> set[str]:
    """``module.name`` for every module-level binding to an instance of
    a mutable ``src/`` class: one object every world in the process
    shares.  Enum members, tuples and frozen dataclasses are immutable."""
    shared = set()
    for module_name, namespace in modules:
        for name, value in namespace.items():
            kind = type(value)
            params = getattr(kind, "__dataclass_params__", None)
            if (
                kind.__module__.startswith("repro.")
                and not isinstance(value, (type, Enum, tuple))
                and not (params is not None and params.frozen)
            ):
                shared.add(f"{module_name}.{name}")
    return shared


def test_no_module_level_instance_of_a_mutable_class_under_src():
    """A world owns its state (its plan cache, its name resolver): none
    lives in a module, where every world in the process would share it."""
    names = [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith(".__main__")
    ]
    modules = [
        (name, vars(importlib.import_module(name)))
        for name in ["repro", *names]
    ]
    assert _shared_instances(modules) == set()


def test_the_instance_census_refuses_a_shared_cache():
    # Guard the guard: a frozen constant passes, a plan cache does not.
    namespace = {"PESSIMISTIC": PESSIMISTIC, "PLANS": PlanCache(Metrics())}
    assert _shared_instances([("m", namespace)]) == {"m.PLANS"}


def test_batch_policy_has_one_knob():
    assert [field.name for field in fields(BatchPolicy)] == ["max_batch_size"]


# --- definitions only tests reach ---------------------------------------

_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")
#: ... and in the spine tracer's binding tables a bare name too: it
#: binds methods by name (``vars(cls)[name]``)
_NAMED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")
#: the one file outside the package that looks a name up by its bare text
_BINDS_BY_NAME = REPO / "benchmarks" / "spine" / "tracing.py"


def _tracer_bound_names() -> set[str]:
    """Every name a string in the tracer's binding tables spells:
    ``TARGETS``, the tuples it splices in (``for method in
    _INCREMENTAL``) and ``_BINDERS``.  Its other strings (the kind
    labels ``SPAN = "span"``, ...) bind nothing."""
    assigned = {
        node.targets[0].id: node.value
        for node in ast.parse(_BINDS_BY_NAME.read_text()).body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
    }
    spliced = {
        node.iter.id
        for node in ast.walk(assigned["TARGETS"])
        if isinstance(node, ast.comprehension)
        and isinstance(node.iter, ast.Name)
    }
    return {
        part
        for table in {"TARGETS", "_BINDERS", *spliced}
        for node in ast.walk(assigned[table])
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and _NAMED.fullmatch(node.value)
        for part in node.value.split(".")
    }


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


def _uses(tree, strings=_DOTTED):
    """``(name, line, bare)`` for every name the module reads: a loaded
    ``Name`` (``bare``), an ``Attribute``, or a component of a string
    that ``strings`` matches (a name looked up by its text)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno, True
        elif isinstance(node, ast.Attribute) and isinstance(
            node.ctx, ast.Load
        ):
            yield node.attr, node.lineno, False
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if strings.fullmatch(node.value):
                for part in node.value.split("."):
                    yield part, node.lineno, False


def _test_only_definitions():
    """Definitions under ``src/repro`` whose name nothing outside
    ``tests/`` reads: not ``src/`` outside the definition's own body,
    not ``benchmarks/`` or ``examples/`` (code only: a word in a comment
    or a docstring reaches nothing; a bare-name string counts only in
    the tracer's binding tables, which bind by name).  By name, so a name defined twice
    passes when either is used; dunders are implicit protocol.  A
    definition in a class body is reached only through an attribute
    (``.name``) or a string: a bare name is some other function or
    variable it shares a name with."""
    trees = {
        path.relative_to(SRC).as_posix(): ast.parse(path.read_text())
        for path in sorted(SRC.rglob("*.py"))
    }
    used_at = defaultdict(list)
    for module, tree in trees.items():
        for name, line, bare in _uses(tree):
            used_at[name].append((module, line, bare))
    for folder in ("benchmarks", "examples"):
        for path in (REPO / folder).rglob("*.py"):
            for name, _line, bare in _uses(ast.parse(path.read_text())):
                used_at[name].append((folder, 0, bare))
    for name in _tracer_bound_names():
        used_at[name].append(("benchmarks", 0, False))
    flagged = {}
    for module, tree in trees.items():
        for qualified, node in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            member = "." in qualified
            span = range(node.lineno, node.end_lineno + 1)
            if any(
                (where != module or line not in span)
                and not (member and bare)
                for where, line, bare in used_at[name]
            ):
                continue
            flagged[f"{module}: {qualified}"] = span
    return flagged


def test_src_definitions_have_a_non_test_caller():
    """Oracles and test helpers live in ``tests/``: a definition in the
    package that only tests call is either dead or a second statement of
    a rule the system runs elsewhere."""
    assert set(_test_only_definitions()) == set()


def test_the_census_counts_only_the_tracers_binding_tables():
    # Guard the guard: a kind label binds nothing, a table entry does.
    bound = _tracer_bound_names()
    assert bound.isdisjoint({"span", "leaf", "gen"})
    assert {"unit_successors", "umq_reordered", "prepare", "audit"} <= bound
