"""The recovered warehouse is the warehouse that crashed.

``recover()`` rebuilds through the constructor that built the stack
(:func:`repro.core.stack.build_stack`, over the harness's
:class:`~repro.core.stack.StackDescription`), so a recovered shard keeps
its delivery filter: it maintains what its uncrashed twin maintains —
per shard, not only in the union every oracle compare looks at — and
what its router dropped before the crash stays dropped.
"""

import pytest

from repro.core.strategies import PESSIMISTIC
from repro.experiments.testbed import (
    build_sharded_testbed,
    build_testbed,
    fixed_rename_relation,
)
from repro.recovery import (
    CrashPlan,
    SchedulerCrash,
    recover,
    recover_in_place,
)

from repro.sources.messages import RenameRelation
from repro.sources.workload import FixedUpdate, Workload
from tests.detection_oracle import edge_set, find_dependencies

SHARDS = 4
DU_COUNT = 96
SC_COUNT = 3
#: every world replays the whole stream into its own source replicas
COMMITS = DU_COUNT + SC_COUNT


def _sharded(**knobs):
    testbed = build_sharded_testbed(
        PESSIMISTIC,
        shards=SHARDS,
        tuples_per_relation=120,
        journal=True,
        **knobs,
    )
    testbed.schedule_du_workload(DU_COUNT, start=0.05, interval=0.05)
    testbed.schedule_sc_workload(SC_COUNT, start=0.6, interval=4.0)
    return testbed


def _per_shard(testbed):
    """What each shard did, from the collected state records (the one
    surface inline and process runs share)."""
    assert testbed.check_consistency()
    return {
        shard_id: {
            "maintained": state["metrics"].maintained_updates,
            "committed": state["committed"],
            "delivered": state["metrics"].router_delivered,
            "dropped": state["metrics"].router_dropped,
            "extents": state["extents"],
        }
        for shard_id, state in testbed.driver._states().items()
    }


def _crash_reports(testbed) -> int:
    states = testbed.driver._states().values()
    return sum(state["crash_reports"] for state in states)


def _assert_same_shards(crashed, twin):
    assert _crash_reports(crashed) == SHARDS
    assert _crash_reports(twin) == 0
    crashed, twin = _per_shard(crashed), _per_shard(twin)
    assert crashed == twin
    for shard in crashed.values():
        assert shard["maintained"] == len(shard["committed"]) < COMMITS
        assert shard["delivered"] + shard["dropped"] == COMMITS
        assert shard["delivered"] == shard["maintained"]


@pytest.mark.parametrize(
    "knobs",
    [
        {},
        {"parallel_workers": 2},
        {"shard_processes": 2},
        {"shard_processes": 2, "parallel_workers": 2},
    ],
    ids=["serial", "parallel-2", "processes-2", "processes-2-parallel-2"],
)
def test_recovered_shard_maintains_what_its_uncrashed_twin_maintains(knobs):
    point = (
        "parallel.post_install"
        if "parallel_workers" in knobs
        else "serial.post_commit"
    )
    twin = _sharded(**knobs)
    twin.run()
    crashed = _sharded(crash_plan=CrashPlan(point, 20), **knobs)
    crashed.run()
    _assert_same_shards(crashed, twin)


def test_committed_refs_stay_inside_the_shard_footprint():
    crashed = _sharded(crash_plan=CrashPlan("serial.post_commit", 20))
    crashed.run()
    warehouse = crashed.warehouse
    for shard in warehouse.shards:
        assert len(shard.crash_reports) == 1
        footprint = warehouse.router.footprint(shard.shard_id)
        logs = {
            name: source.log for name, source in shard.engine.sources.items()
        }
        assert sum(map(len, logs.values())) == COMMITS
        for source, seqno in crashed.driver._states()[shard.shard_id][
            "committed"
        ]:
            touched = logs[source][seqno - 1].payload.touched_relations()
            assert any((source, name) in footprint for name in touched)


def test_a_crash_during_replay_keeps_the_filter_and_the_counts():
    """Every shard crashes mid-run, then its first replay is crashed
    too; the second attempt asks the pure predicate again and must
    neither re-admit dropped messages nor count a delivery twice."""
    twin = _sharded(checkpoint_every=100)
    twin.run()
    crashed = _sharded(
        checkpoint_every=100,  # keep journal entries for replay to hit
        crash_plan=CrashPlan("serial.post_commit", 20),
    )
    for shard in crashed.warehouse.shards:
        with pytest.raises(SchedulerCrash):
            shard.scheduler.run()
        injector = shard.engine.crash_injector
        injector.arm(CrashPlan("recover.replay", 2))
        recover_in_place(shard)
        assert injector.fired.point == "recover.replay"
        assert shard.crash_reports[0].reenqueued < COMMITS
    crashed.run()
    _assert_same_shards(crashed, twin)


def test_recovery_rebuilds_from_the_description_it_was_armed_with():
    testbed = build_testbed(
        PESSIMISTIC,
        tuples_per_relation=20,
        parallel_workers=3,
        crash_plan=CrashPlan("parallel.post_install", 2),
    )
    testbed.engine.schedule_workload(
        testbed.random_du_workload(8, start=0.0, interval=0.01, seed=1)
    )
    description = testbed.recovery.description
    assert description.parallel_workers == 3
    kind = type(testbed.scheduler)
    testbed.run()
    assert len(testbed.crash_reports) == 1
    assert type(testbed.scheduler) is kind
    assert len(testbed.scheduler.pool) == 3
    assert testbed.recovery.description is description


def test_a_checkpoint_written_before_the_one_constructor_still_loads():
    """Older checkpoint documents carry a ``"multi"`` flag (which
    manager class to rebuild) and a ``"umq"`` listing; neither is
    written or read any more — the number of views decides the class,
    as at build time, and the unresolved source log is the queue."""
    testbed = build_testbed(
        PESSIMISTIC,
        tuples_per_relation=20,
        journal=True,
        spans=((0, 2), (1, 3)),
    )
    testbed.engine.schedule_workload(
        testbed.random_du_workload(6, start=0.0, interval=0.01, seed=1)
    )
    testbed.run()
    store = testbed.recovery.store
    state = store.load()
    assert not {"multi", "umq"} & set(state)
    store.save({**state, "multi": True, "umq": [[["src1", 1]]]})
    recovered = recover(testbed.recovery)
    assert type(recovered.manager) is type(testbed.manager)
    assert [m.view.name for m in recovered.manager.view_managers()] == [
        "V1",
        "V2",
    ]
    assert recovered.report.reenqueued == 0


def test_a_recovered_substrate_derives_everything_afresh():
    """The crash lands between the two links of a rename chain: the
    first rename is installed, ``R1__v2 -> R1__v3`` is queued with its
    speculative rewrite remembered.  ``recover()`` replaces manager and
    scheduler through ``build_stack``, so the substrate's memos — what
    a footprint, a normalization and a rewrite remember — are instance
    state that dies with the crashed stack: the recovered substrate
    shares none of it and agrees with the memo-free oracle.  (Anything
    module-level would survive the crash and meet a manager whose
    definitions and version counters were rebuilt from the journal.)"""
    testbed = build_testbed(
        PESSIMISTIC,
        tuples_per_relation=20,
        journal=True,
        crash_plan=CrashPlan("serial.post_commit", 1),
    )
    chain = Workload()
    chain.add(0.0, "src1", fixed_rename_relation(0, 2))
    chain.add(20.0, "src1", FixedUpdate(RenameRelation("R1__v2", "R1__v3")))
    chain.add(20.01, "src1", FixedUpdate(RenameRelation("R2", "R2__v2")))
    testbed.engine.schedule_workload(chain)
    testbed.engine.schedule_workload(
        testbed.random_du_workload(6, 0.0, 0.5, seed=1)
    )
    with pytest.raises(SchedulerCrash):
        testbed.scheduler.run()
    crashed = testbed.scheduler.substrate.cache
    view = testbed.manager.manager_for("V").view
    assert view.query.references_relation("src1", "R1__v2")
    assert len(crashed._rewrites) == 2  # both queued renames, remembered

    recover_in_place(testbed)
    manager, substrate = testbed.manager, testbed.scheduler.substrate
    queued = manager.umq.messages()
    assert [m.payload for m in queued if m.is_schema_change] == [
        RenameRelation("R1__v2", "R1__v3"),
        RenameRelation("R2", "R2__v2"),
    ]
    recovered = substrate.cache
    for memo in ("_entries", "_rewrites", "_normalized"):
        assert getattr(recovered, memo) is not getattr(crashed, memo)
    assert {id(entry[0]) for entry in recovered._rewrites.values()} <= {
        id(message) for message in queued
    }
    assert edge_set(substrate.dependencies()) == edge_set(
        find_dependencies(
            queued, manager.maintenance_queries, manager.speculative_queries
        )
    )
    testbed.run()
    assert testbed.check_consistency()
    view = manager.manager_for("V").view
    assert view.query.references_relation("src1", "R1__v3")
