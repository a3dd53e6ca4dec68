"""One warehouse stack, one constructor — checked on the source.

``repro.core.stack.build_stack`` is the only place in the package that
picks a manager class and a scheduler class; experiment worlds, the
facade and crash recovery all build through it, so what ``recover()``
rebuilds cannot drift from what was built.  Nothing asks a manager what
shape it has (both answer ``view_managers()``), and the recovery harness
carries the stack's description, not a hand-picked subset of its knobs.
"""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).parent
STACK_CLASSES = {
    "ViewManager",
    "MultiViewManager",
    "DynoScheduler",
    "ParallelScheduler",
}
#: who may construct what: the builder, plus the multi-view manager for
#: its inner per-view managers
ALLOWED = {
    ("core/stack.py", "build_stack"): STACK_CLASSES,
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
    # Guard the guard: the walk must find the four constructions.
    tree = ast.parse((PACKAGE / "core" / "stack.py").read_text())
    found = {
        _called_name(node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }
    assert STACK_CLASSES <= found


def test_nothing_probes_a_manager_for_its_shape():
    """No ``getattr`` / ``hasattr`` on ``"managers"``; both manager
    classes answer ``view_managers()``."""
    from repro.views.manager import ViewManager
    from repro.views.multi import MultiViewManager

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
    for cls in (ViewManager, MultiViewManager):
        assert "view_managers" in vars(cls)


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
