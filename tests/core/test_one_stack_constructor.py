"""One warehouse stack, one constructor — checked on the source.

``repro.core.stack.build_stack`` is the only place in the package that
constructs a stack (one class, ``MultiViewManager``, for any number of
views) and picks a scheduler class; experiment worlds, the facade and
crash recovery all build through it, so what ``recover()`` rebuilds
cannot drift from what was built.  Nothing asks a manager what shape it
has, and the recovery harness carries the stack's description, not a
hand-picked subset of its knobs.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro import (
    DataSource,
    DynoScheduler,
    MultiViewManager,
    RelationRef,
    SPJQuery,
    SimEngine,
    ViewDefinition,
    attr,
)
from repro.core.stack import StackDescription, build_stack
from tests.conftest import CATALOG_SCHEMA

PACKAGE = Path(repro.__file__).parent
STACK_CLASSES = {
    "ViewManager",
    "MultiViewManager",
    "DynoScheduler",
    "ParallelScheduler",
}
#: who may construct what: the builder builds the stack and its
#: scheduler, the stack its per-view managers
ALLOWED = {
    ("core/stack.py", "build_stack"): {
        "MultiViewManager",
        "DynoScheduler",
        "ParallelScheduler",
    },
    ("views/multi.py", "__init__"): {"ViewManager"},
}
FORWARDED_KNOBS = {"strategy", "parallel_workers", "batch_policy", "mkb"}


def _trees():
    for path in sorted(PACKAGE.rglob("*.py")):
        yield path.relative_to(PACKAGE).as_posix(), ast.parse(
            path.read_text()
        )


def _called_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _functions(tree):
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def _stack_calls(node) -> list[tuple[int, str]]:
    return [
        (call.lineno, _called_name(call))
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and _called_name(call) in STACK_CLASSES
    ]


def test_only_the_builder_constructs_managers_and_schedulers():
    offenders = []
    for name, tree in _trees():
        permitted = {
            (line, called)
            for function in _functions(tree)
            for line, called in _stack_calls(function)
            if called in ALLOWED.get((name, function.name), ())
        }
        offenders += [
            f"{name}:{line} {called}(...)"
            for line, called in _stack_calls(tree)
            if (line, called) not in permitted
        ]
    assert not offenders


def test_the_guard_sees_the_builder():
    # Guard the guard: the walk must find the three constructions.
    tree = ast.parse((PACKAGE / "core" / "stack.py").read_text())
    found = {
        _called_name(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    } & STACK_CLASSES
    assert found == ALLOWED[("core/stack.py", "build_stack")]


def _library_engine() -> SimEngine:
    engine = SimEngine()
    library = engine.add_source(DataSource("library"))
    library.create_relation(
        CATALOG_SCHEMA, [("Databases", "Gray", "CS", "MIT", "good")]
    )
    return engine


def _catalog_views(count: int) -> list[ViewDefinition]:
    """``count`` one-relation views over the library's catalog."""
    query = SPJQuery(
        relations=(RelationRef("library", "Catalog", "C"),),
        projection=(attr("C", "Title"), attr("C", "Review")),
    )
    return [ViewDefinition(f"V{index}", query) for index in range(count)]


@pytest.mark.parametrize("count", [1, 3])
def test_one_stack_class_for_any_number_of_views(count):
    views = _catalog_views(count)
    stack, scheduler = build_stack(
        _library_engine(), views, StackDescription()
    )
    assert type(stack) is MultiViewManager
    assert type(scheduler) is DynoScheduler
    assert [manager.view for manager in stack.view_managers()] == views


def test_the_one_view_reads_refuse_several_views():
    """The stack's ``mv`` / ``recompute_reference`` answer a one-view
    stack only (the benchmark spine reads them; ROADMAP 12(e) deletes
    them, and then the attribute error is the refusal)."""
    stack, _scheduler = build_stack(
        _library_engine(), _catalog_views(2), StackDescription()
    )
    with pytest.raises((TypeError, AttributeError)):
        stack.mv
    with pytest.raises((TypeError, AttributeError)):
        stack.recompute_reference()


def test_nothing_probes_a_manager_for_its_shape():
    """No ``getattr`` / ``hasattr`` on ``"managers"``; the stack
    answers ``view_managers()``."""
    offenders = [
        f"{name}:{node.lineno}"
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and _called_name(node) in {"getattr", "hasattr"}
        and any(
            isinstance(argument, ast.Constant)
            and argument.value == "managers"
            for argument in node.args
        )
    ]
    assert not offenders
    assert "view_managers" in vars(MultiViewManager)


def test_the_harness_holds_the_description_not_its_knobs():
    tree = ast.parse((PACKAGE / "recovery" / "recover.py").read_text())
    harness = next(
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "RecoveryHarness"
    )
    for scope, name in ((harness, "__init__"), (tree, "arm_recovery")):
        function = next(
            node
            for node in scope.body
            if isinstance(node, ast.FunctionDef) and node.name == name
        )
        arguments = function.args
        parameters = {
            argument.arg
            for argument in arguments.posonlyargs
            + arguments.args
            + arguments.kwonlyargs
        }
        assert "description" in parameters, name
        assert not parameters & FORWARDED_KNOBS, name
