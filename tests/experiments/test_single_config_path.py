"""Structure the one-config design promises, checked on the source:
knobs travel inside a ``WarehouseConfig`` — never as their own function
parameters — and one function builds every testbed world."""

import ast
import dataclasses
from pathlib import Path

import repro.experiments
from repro.experiments import WarehouseConfig

HARNESS = Path(repro.experiments.__file__).parent
KNOBS = {field.name for field in dataclasses.fields(WarehouseConfig)}

#: the update-stream API ``benchmarks/spine`` drives (and may not be
#: changed for): a stream's own ``seed`` and its key range are stream
#: parameters that happen to share a knob's name; plus ``strategy``,
#: the two public builders' one positional argument
PINNED = {
    ("testbed.py", "make_du_workload"): {"tuples_per_relation", "seed"},
    ("testbed.py", "make_sc_workload"): {"seed"},
    ("testbed.py", "random_du_workload"): {"seed"},
    ("testbed.py", "schema_change_workload"): {"seed"},
    ("testbed.py", "schedule_du_workload"): {"seed"},
    ("testbed.py", "schedule_sc_workload"): {"seed"},
    ("testbed.py", "build_testbed"): {"strategy"},
    ("testbed.py", "build_sharded_testbed"): {"strategy"},
}


def _functions(path: Path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            arguments = node.args
            names = {
                argument.arg
                for argument in (
                    arguments.posonlyargs
                    + arguments.args
                    + arguments.kwonlyargs
                )
            }
            yield getattr(node, "name", "<lambda>"), names


def test_no_knob_is_a_function_parameter_in_the_harness():
    offenders = {}
    for path in sorted(HARNESS.glob("*.py")):
        if path.name == "config.py":
            continue
        for function, parameters in _functions(path):
            if path.name == "__main__.py" and function == "<lambda>":
                continue  # the flag table's converters
            leaked = (parameters & KNOBS) - PINNED.get(
                (path.name, function), set()
            )
            if leaked:
                offenders[f"{path.name}:{function}"] = sorted(leaked)
    assert not offenders


def test_one_function_builds_testbed_worlds():
    """Exactly one function of the harness calls ``SimEngine(...)``."""
    callers = [
        f"{path.name}:{function.name}"
        for path in sorted(HARNESS.glob("*.py"))
        for function in ast.walk(ast.parse(path.read_text()))
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "SimEngine"
    ]
    assert callers == ["testbed.py:build_shard_world"]
