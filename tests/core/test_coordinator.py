"""The shard coordinator is written once: one caller of the round
policy, one place that ticks each barrier counter, one definition of
every accessor a run is observed through — the inline and the process
warehouse share them and differ in their transport alone."""

import ast
from pathlib import Path

import pytest

import repro

PACKAGE = Path(repro.__file__).parent

ACCESSORS = (
    "extent_rows",
    "committed_updates",
    "shard_clocks",
    "aggregate_makespan",
    "aggregate_metrics",
    "horizon",
    "install_logs",
    "initial_sizes",
    "consistent",
    "cost_model",
)


def _functions(root: Path):
    """``(file:function, node)`` of every function under ``root``."""
    for path in sorted(root.rglob("*.py")):
        file = path.relative_to(PACKAGE).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                yield f"{file}:{node.name}", node


def _calls(function: ast.FunctionDef, name: str) -> bool:
    return any(
        isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == name
        for node in ast.walk(function)
    )


def _increments(function: ast.FunctionDef, attribute: str) -> bool:
    return any(
        isinstance(node, ast.AugAssign)
        and isinstance(node.target, ast.Attribute)
        and node.target.attr == attribute
        for node in ast.walk(function)
    )


def test_one_function_calls_the_round_policy():
    assert [
        where for where, node in _functions(PACKAGE)
        if _calls(node, "plan_round")
    ] == ["core/sharding.py:_drive"]


@pytest.mark.parametrize("counter", ["barrier_deferrals", "barrier_releases"])
def test_one_function_ticks_each_barrier_counter(counter):
    assert [
        where for where, node in _functions(PACKAGE)
        if _increments(node, counter)
    ] == ["core/sharding.py:execute_command"]


@pytest.mark.parametrize("accessor", ACCESSORS)
def test_each_accessor_is_defined_once(accessor):
    assert [
        where for where, node in _functions(PACKAGE / "core")
        if node.name == accessor
    ] == [f"core/sharding.py:{accessor}"]


def test_both_warehouses_own_what_the_spine_tracer_binds():
    # benchmarks/spine/tracing.py rebinds these through vars(owner):
    # an inherited ``run`` would be a KeyError in every traced child.
    from repro.core import sharding
    from repro.core.runtime import ProcessShardRuntime

    assert "run" in vars(sharding.ShardedWarehouse)
    assert {"prepare", "run"} <= set(vars(ProcessShardRuntime))
    assert "step_shard" in vars(sharding)
