"""Unit tests for the recovery substrate: codecs, sinks, stores,
journal bookkeeping, checkpoint truncation, and crash plans."""

from __future__ import annotations

import json

import pytest

from repro.core.strategies import NAIVE, PESSIMISTIC
from repro.experiments.testbed import build_testbed
from repro.recovery import (
    CRASH_POINTS,
    CrashInjector,
    CrashPlan,
    FileCheckpointStore,
    FileJournalSink,
    MemoryCheckpointStore,
    MemoryJournalSink,
    RecoveryError,
    SchedulerCrash,
)
from repro.recovery.codec import (
    definition_from_json,
    definition_to_json,
    delta_from_json,
    delta_to_json,
    schema_from_json,
    schema_to_json,
    table_from_json,
    table_to_json,
)
from repro.relational.delta import Delta
from repro.relational.schema import RelationSchema
from repro.relational.table import Table
from repro.relational.types import AttributeType

SCHEMA = RelationSchema.of(
    "R", [("K", AttributeType.INT), ("Name", AttributeType.STRING)]
)


# ----------------------------------------------------------------------
# codecs
# ----------------------------------------------------------------------


def test_schema_roundtrip():
    assert schema_from_json(schema_to_json(SCHEMA)) == SCHEMA


def test_table_roundtrip_preserves_bag_counts():
    table = Table(SCHEMA)
    table.insert((1, "a"))
    table.insert((1, "a"))
    table.insert((2, "o'hara"))
    data = json.loads(json.dumps(table_to_json(table)))
    back = table_from_json(data)
    assert sorted(back.items()) == sorted(table.items())
    assert back.schema == SCHEMA


def test_delta_roundtrip_preserves_signed_counts():
    delta = Delta(SCHEMA)
    delta.add((1, "a"), 2)
    delta.add((2, "b"), -1)
    back = delta_from_json(json.loads(json.dumps(delta_to_json(delta))))
    assert sorted(back.items()) == sorted(delta.items())


def test_definition_roundtrip_through_sourced_sql():
    testbed = build_testbed(PESSIMISTIC, tuples_per_relation=3)
    definition = testbed.manager.manager_for("V").view
    back = definition_from_json(
        json.loads(json.dumps(definition_to_json(definition)))
    )
    assert back.name == definition.name
    assert back.version == definition.version
    assert back.query == definition.query


# ----------------------------------------------------------------------
# sinks and stores
# ----------------------------------------------------------------------


def test_memory_sink_append_entries_truncate():
    sink = MemoryJournalSink()
    written = sink.append({"kind": "receive", "seq": 1})
    assert written > 0
    assert sink.entries() == [{"kind": "receive", "seq": 1}]
    sink.truncate()
    assert sink.entries() == []


def test_file_sink_is_jsonl_and_truncates(tmp_path):
    path = tmp_path / "journal.jsonl"
    sink = FileJournalSink(path)
    sink.append({"kind": "install", "seq": 1})
    sink.append({"kind": "skip", "seq": 2})
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["kind"] == "install"
    assert [e["seq"] for e in sink.entries()] == [1, 2]
    sink.truncate()
    assert path.read_text() == ""
    assert sink.entries() == []


def test_checkpoint_stores_roundtrip(tmp_path):
    state = {"journal_seq": 7, "views": [], "umq": []}
    memory = MemoryCheckpointStore()
    assert memory.load() is None
    memory.save(state)
    assert memory.load() == state
    # isolation: mutating a loaded copy must not corrupt the store
    memory.load()["journal_seq"] = 99
    assert memory.load()["journal_seq"] == 7

    file_store = FileCheckpointStore(tmp_path / "ckpt.json")
    assert file_store.load() is None
    file_store.save(state)
    assert file_store.load() == state


# ----------------------------------------------------------------------
# journal bookkeeping via a real run
# ----------------------------------------------------------------------


def run_journaled(checkpoint_every=100):
    testbed = build_testbed(
        PESSIMISTIC,
        tuples_per_relation=10,
        journal=True,
        checkpoint_every=checkpoint_every,
    )
    testbed.engine.schedule_workload(
        testbed.random_du_workload(6, start=0.0, interval=0.01, seed=3)
    )
    testbed.run()
    return testbed


def test_journal_seq_is_monotone_and_gapless():
    testbed = run_journaled()
    seqs = [e["seq"] for e in testbed.recovery.sink.entries()]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)
    # genesis checkpoint truncated nothing (taken before any entry), so
    # the retained tail is the full gapless run
    assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))


def test_journal_records_receive_and_install_kinds():
    testbed = run_journaled()
    kinds = {e["kind"] for e in testbed.recovery.sink.entries()}
    assert "receive" in kinds
    assert "install" in kinds


def test_install_and_skip_entries_carry_only_what_replay_reads():
    """Replay reads an install's refs and effects and a skip's refs; it
    derives the watermark from the resolved refs, so no entry stores
    one.  NAIVE skips the units a schema change broke, so the run
    writes both kinds."""
    keys = {
        "install": {"kind", "seq", "refs", "effects"},
        "skip": {"kind", "seq", "refs"},
    }
    testbed = build_testbed(
        NAIVE, tuples_per_relation=10, journal=True, checkpoint_every=100
    )
    testbed.engine.schedule_workload(
        testbed.random_du_workload(6, start=0.0, interval=0.01, seed=3)
    )
    testbed.engine.schedule_workload(
        testbed.schema_change_workload(2, start=0.005, interval=0.01, seed=0)
    )
    testbed.run()
    entries = testbed.recovery.sink.entries()
    assert {"install", "skip"} <= {entry["kind"] for entry in entries}
    for entry in entries:
        if entry["kind"] in keys:
            assert set(entry) == keys[entry["kind"]], entry


def test_checkpoint_truncates_and_seq_survives():
    testbed = run_journaled(checkpoint_every=2)
    assert testbed.metrics.checkpoints_taken >= 2
    state = testbed.recovery.store.load()
    # everything retained in the sink is strictly newer than the
    # checkpoint's journal_seq (the replay filter invariant)
    for entry in testbed.recovery.sink.entries():
        assert entry["seq"] > state["journal_seq"]
    # and the checkpointed resolved units cover the live bookkeeping
    checkpointed = {
        tuple(ref) for unit in state["installed_units"] for ref in unit
    }
    assert checkpointed <= testbed.committed_updates()


def test_journal_metrics_accumulate():
    testbed = run_journaled()
    assert testbed.metrics.journal_entries == len(
        testbed.recovery.sink.entries()
    )
    assert testbed.metrics.journal_bytes > 0
    assert testbed.metrics.busy_time["journal"] > 0


def test_recover_without_checkpoint_raises():
    testbed = run_journaled()
    testbed.recovery.store._state = None  # empty the memory store
    with pytest.raises(RecoveryError):
        testbed.recovery.recover()


# ----------------------------------------------------------------------
# crash plans and the injector
# ----------------------------------------------------------------------


def test_crash_plan_validates_point():
    with pytest.raises(ValueError):
        CrashPlan("not.a.point", 1)
    with pytest.raises(ValueError):
        CrashPlan("serial.pre_detect", 0)


def test_crash_plan_random_is_deterministic():
    assert CrashPlan.random(42) == CrashPlan.random(42)
    plans = {CrashPlan.random(seed).point for seed in range(50)}
    assert len(plans) > 3  # spreads over the point set


def test_injector_fires_on_nth_hit_then_disarms():
    injector = CrashInjector(CrashPlan("serial.pre_detect", 3))
    injector.on_point("serial.pre_detect", 0.0)
    injector.on_point("serial.pre_maintain", 0.1)  # other points ignored
    injector.on_point("serial.pre_detect", 0.2)
    with pytest.raises(SchedulerCrash) as exc:
        injector.on_point("serial.pre_detect", 0.3)
    assert exc.value.point == "serial.pre_detect"
    assert exc.value.hit == 3
    assert not injector.armed
    # disarmed: further visits never raise
    injector.on_point("serial.pre_detect", 0.4)
    assert injector.counts["serial.pre_detect"] == 4


def test_injector_rearm_resets_counts():
    injector = CrashInjector(CrashPlan("serial.pre_detect", 1))
    with pytest.raises(SchedulerCrash):
        injector.on_point("serial.pre_detect", 0.0)
    injector.arm(CrashPlan("recover.replay", 1))
    assert injector.armed
    assert injector.fired is None
    assert injector.counts["serial.pre_detect"] == 0
    with pytest.raises(SchedulerCrash):
        injector.on_point("recover.replay", 1.0)


def test_crash_point_registry_is_complete():
    assert len(CRASH_POINTS) == len(set(CRASH_POINTS))
    prefixes = {point.split(".")[0] for point in CRASH_POINTS}
    assert prefixes == {
        "serial",
        "install",
        "parallel",
        "checkpoint",
        "recover",
    }
