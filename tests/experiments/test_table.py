"""The experiment table is the one statement of every sweep shape and
acceptance bar: the CLI, the benches and the regression guard's
baselines must all line up with it, and none may restate it."""

import ast
import inspect
import json
import re
from pathlib import Path

import pytest

import repro.experiments.__main__ as cli
from benchmarks import bench_ablations, bench_wallclock, check_regression
from repro.experiments import WarehouseConfig
from repro.experiments.ablations import run_parallel_ablation
from repro.experiments.table import BY_ID, EXPERIMENTS

BENCHMARKS = Path(check_regression.__file__).parent
#: who may branch on the bench scale: the definition of ``full_scale``
#: (with the figure benches' tuple count) and the untouched FIG benches
MAY_BRANCH_ON_SCALE = ("_helpers.py", "bench_fig")

ROW_IDS = [row.id for row in EXPERIMENTS]
#: ... plus the rows a bench lane declares for itself: ABL-2 and ABL-5
#: (they time the test-side detection oracle), ABL-4 (its deferral
#: interval is not a config field) and ABL-12
ALL_ROWS = (
    *EXPERIMENTS,
    bench_ablations.ABL_2,
    bench_ablations.ABL_4,
    bench_ablations.ABL_5,
    bench_wallclock._row(),
)


def _figure_id(row) -> str:
    """What the row's results call themselves — the one figure-id
    literal in its runner's source; lower-cased, the stem of its files
    under ``benchmarks/results/`` and ``benchmarks/baselines/``."""
    (figure_id,) = set(
        re.findall(r'"((?:FIG|ABL)-[\w-]+)"', inspect.getsource(row.run))
    )
    return figure_id


def test_table_ids_are_the_cli_ids():
    assert len(ROW_IDS) == len(set(ROW_IDS)) == len(BY_ID) == 14
    for full in (False, True):
        assert list(cli._runners(full)) == ROW_IDS


def test_every_baseline_has_a_row():
    rows = {_figure_id(row): row for row in ALL_ROWS}
    assert len(rows) == len(ALL_ROWS)
    baselines = sorted(check_regression.BASELINES_DIR.glob("*.json"))
    assert baselines
    for baseline in baselines:
        figure = json.loads(baseline.read_text())
        assert figure["figure_id"] in rows, f"{baseline.name} has no row"
        assert baseline.stem == figure["figure_id"].lower()
        assert figure["timebase"] == rows[figure["figure_id"]].timebase


@pytest.mark.parametrize("row", ALL_ROWS, ids=lambda row: row.id)
def test_row_is_complete_and_binds_to_its_runner(row):
    """No run needed: both shapes are keyword arguments the runner
    accepts (and supply every argument it requires), and a bar and a
    timebase are declared."""
    parameters = inspect.signature(row.run)
    for shape in (row.quick, row.full):
        parameters.bind(**shape)
    assert row.timebase in ("virtual", "wall")
    assert callable(row.check) and callable(row.bar)


def test_row_stamps_its_timebase_on_the_result():
    row = bench_ablations.ABL_2
    result = row(sizes=((20, 2), (40, 4)))
    assert result.timebase == "wall"
    assert json.loads(result.to_json())["timebase"] == "wall"
    row.check(result)


def _picks_a_value_by_scale(node: ast.AST) -> bool:
    """A ternary on ``full_scale``, or an ``if`` on it that assigns."""
    if isinstance(node, ast.IfExp):
        picks = True
    elif isinstance(node, ast.If):
        picks = any(
            isinstance(inner, (ast.Assign, ast.AnnAssign, ast.AugAssign))
            for inner in ast.walk(node)
        )
    else:
        return False
    return picks and any(
        isinstance(inner, ast.Name) and inner.id == "full_scale"
        for inner in ast.walk(node.test)
    )


def test_no_bench_module_picks_its_own_shape():
    """Outside the spine and the FIG benches, no bench module branches
    on the scale to choose keyword arguments: a scale is a column of
    the table (or of a row the lane declares)."""
    offenders = []
    for path in sorted(BENCHMARKS.glob("*.py")):
        if path.name.startswith(MAY_BRANCH_ON_SCALE):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if _picks_a_value_by_scale(node):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders
    assert not list(BENCHMARKS.glob("bench_ablation_*.py"))


def test_runners_holds_no_sweep_literal():
    """``_runners`` derives everything from the table."""
    tree = ast.parse(inspect.getsource(cli._runners))
    assert not [
        node for node in ast.walk(tree) if isinstance(node, ast.Dict)
    ]


def test_parallel_sweep_must_start_at_one_worker():
    """The speedup columns are documented as relative to the 1-worker
    arm: a sweep without it is rejected, not silently re-based."""
    with pytest.raises(ValueError, match="1-worker"):
        run_parallel_ablation(
            WarehouseConfig(tuples_per_relation=50), 4, workers=(2, 4)
        )
