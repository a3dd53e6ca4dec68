"""Strong consistency, judged by the sqlite extent oracle.

Convergence (the final extent matches the final sources) is necessary
but weak: a maintenance algorithm could wander through nonsense states
in between.  The paper claims Dyno achieves *strong consistency* — the
view moves through states that each reflect the sources after a legal
prefix of the updates.  ``tests/extent_oracle.py`` checks exactly that
at every install, over stdlib ``sqlite3``; these tests drive it over
mixed storms, prove it can fail on every stack, and guard its
independence from the code it judges.
"""

import ast
from pathlib import Path

import pytest

from repro.core.strategies import OPTIMISTIC, PESSIMISTIC
from repro.experiments.testbed import (
    ShardedTestbed,
    build_sharded_testbed,
    build_testbed,
    du_stream,
    sc_stream,
)
from tests import extent_oracle
from tests.extent_oracle import ExtentMismatch, check_all, watch

#: what the oracle must not reach: the evaluators it judges
NOT_IMPORTED = (
    "repro.relational.executor",
    "repro.relational.plan",
    "repro.sources.sqlite_source",
)


@pytest.mark.parametrize("strategy", [PESSIMISTIC, OPTIMISTIC])
@pytest.mark.parametrize("seed", [1, 7, 23])
def test_strong_consistency_under_mixed_storm(strategy, seed):
    testbed = build_testbed(strategy, tuples_per_relation=40, seed=seed)
    oracles = watch(testbed)
    testbed.engine.schedule_workload(
        testbed.random_du_workload(15, 0.0, 0.3, seed=seed + 1)
    )
    testbed.engine.schedule_workload(
        testbed.schema_change_workload(3, 0.5, 9.0, seed=seed + 2)
    )
    testbed.run()
    # the invariant really ran (batch merges can reduce unit count)
    assert check_all(oracles) >= 5


def test_adaptation_answers_are_states_of_their_instant():
    """Slow data updates that commit while an adaptation scan's answer
    travels back: the answer must be the relation as it was answered,
    not the live table.  An answer adopted without a copy shares the
    source's counts, and install 1 of this run shows it."""
    testbed = build_testbed(PESSIMISTIC, tuples_per_relation=30, seed=5)
    oracles = watch(testbed)
    testbed.engine.schedule_workload(
        testbed.random_du_workload(6, 0.0, 1.0, seed=5)
    )
    testbed.engine.schedule_workload(
        testbed.schema_change_workload(2, 0.0, 5.0, seed=6)
    )
    testbed.run()
    assert check_all(oracles) == 8


#: every stack ``build_stack`` builds: the serial loop, the parallel
#: executor, and inline shards (over the sharded testbed's four subviews)
MATRIX = {
    "serial": {},
    "parallel-2": {"parallel_workers": 2},
    "parallel-4": {"parallel_workers": 4},
    "shards-2": {"shards": 2},
    "shards-4-parallel-2": {"shards": 4, "parallel_workers": 2},
}


def _build(stack: str, strategy=PESSIMISTIC, **knobs):
    knobs = {**MATRIX[stack], **knobs}
    build = build_sharded_testbed if "shards" in knobs else build_testbed
    return build(strategy, **knobs)


@pytest.mark.parametrize("strategy", [PESSIMISTIC, OPTIMISTIC], ids=str)
@pytest.mark.parametrize("stack", sorted(MATRIX))
def test_every_stack_installs_only_legal_prefixes(stack, strategy):
    testbed = _build(stack, strategy, tuples_per_relation=30)
    oracles = watch(testbed)
    testbed.schedule(
        du_stream(testbed.config, 16, 0.0, 0.03, seed=3),
        sc_stream(3, 0.05, 0.07, seed=4),
    )
    testbed.run()
    assert check_all(oracles) >= 5


def test_strong_consistency_du_only():
    testbed = build_testbed(PESSIMISTIC, tuples_per_relation=40, seed=5)
    oracles = watch(testbed)
    testbed.engine.schedule_workload(
        testbed.random_du_workload(20, 0.0, 0.05, seed=6)
    )
    testbed.run()
    assert check_all(oracles) == 20


def _sabotaged(testbed, after: int = 2):
    """Drop one row of the first view's extent right after install
    ``after`` of the first world, before the oracle snapshots it."""
    sharded = isinstance(testbed, ShardedTestbed)
    world = testbed.warehouse.shards[0] if sharded else testbed
    engine = world.engine
    record = engine.record_install

    def dropping(view_sizes, messages):
        record(view_sizes, messages)
        if len(engine.install_log) == after:
            extent = world.manager.view_managers()[0].mv.extent
            extent.delete(next(iter(extent)))

    engine.record_install = dropping


@pytest.mark.parametrize("stack", ["serial", "parallel-2", "shards-2"])
def test_violation_is_detected_on_every_stack(stack):
    """Sanity for the oracle itself: corrupt an extent mid-run, expect
    the install after it to be refused.  Inserts only, so no later
    delta needs the dropped row."""
    testbed = _build(stack, tuples_per_relation=20, seed=9)
    _sabotaged(testbed)
    oracles = watch(testbed)
    testbed.schedule(
        du_stream(testbed.config, 6, 0.0, 0.5, insert_fraction=1.0, seed=10)
    )
    testbed.run()
    with pytest.raises(ExtentMismatch) as caught:
        check_all(oracles)
    assert caught.value.where.startswith("install 2 of")


def test_violation_is_detected():
    """The serial stack with the row dropped before the run: the first
    install already disagrees."""
    testbed = build_testbed(PESSIMISTIC, tuples_per_relation=20, seed=9)
    oracles = watch(testbed)
    testbed.engine.schedule_workload(
        testbed.random_du_workload(3, 0.0, 0.5, seed=10)
    )

    # sabotage: silently drop one row from the materialized extent
    extent = testbed.manager.manager_for("V").mv.extent
    extent.delete(next(iter(extent)))

    testbed.run()
    with pytest.raises(ExtentMismatch) as caught:
        check_all(oracles)
    assert caught.value.where == "install 1 of 3"


def _reaches_ours(text: str) -> list[str]:
    """What ``text`` imports of :data:`NOT_IMPORTED`, and its
    ``.commit(`` calls."""
    tree = ast.parse(text)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update(
                f"{node.module}.{alias.name}" for alias in node.names
            )
    reached = sorted(
        name
        for name in imported
        for banned in NOT_IMPORTED
        if name == banned or name.startswith(banned + ".")
    )
    return reached + [
        f"line {node.lineno}: .commit("
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "commit"
    ]


def test_the_oracle_evaluates_nothing_of_ours():
    """Independence: the oracle imports none of the evaluators it
    judges, and commits through no source."""
    text = Path(extent_oracle.__file__).read_text()
    assert _reaches_ours(text) == []


def test_the_independence_guard_refuses_a_reach():
    # Guard the guard: an executor import and a commit are both seen.
    text = (
        "from repro.relational.executor import execute\n"
        "import repro.sources.sqlite_source\n"
        "source.commit(update)\n"
    )
    assert _reaches_ours(text) == [
        "repro.relational.executor",
        "repro.relational.executor.execute",
        "repro.sources.sqlite_source",
        "line 3: .commit(",
    ]
