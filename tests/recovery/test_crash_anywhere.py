"""Crash-anywhere equivalence: the headline recovery property.

For every registered crash point, under both correcting strategies, with
the snapshot cache and voluntary batching on and off, and with worker
counts 1..8: kill the warehouse at the Nth visit of the point, recover
from checkpoint + journal, run to quiescence — and the final view
extents plus the set of committed (source, seqno) updates must be
**identical** to the same configuration run without any crash.

A crash point the configuration never reaches fires nothing, so the
"crashed" run trivially equals the oracle — the sweep additionally
asserts every *reachable* point actually fired at least once somewhere,
so the property is not vacuous.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.strategies import OPTIMISTIC, PESSIMISTIC
from repro.experiments.testbed import build_testbed
from repro.frontend.reads import ShardTimeline
from repro.maintenance.grouping import BatchPolicy
from repro.recovery import (
    CRASH_POINTS,
    CrashPlan,
    SchedulerCrash,
    recover_in_place,
    simulate_crash,
)
from tests.recorders import commit_order_guarded

SERIAL_POINTS = tuple(
    p for p in CRASH_POINTS if not p.startswith("parallel.")
)
PARALLEL_ONLY = tuple(p for p in CRASH_POINTS if p.startswith("parallel."))


def run_config(
    strategy,
    crash_plan=None,
    *,
    workers=None,
    cache=False,
    batch=False,
    checkpoint_every=2,
    schema_changes=False,
):
    with commit_order_guarded() as inversions:
        testbed = build_testbed(
            strategy,
            tuples_per_relation=20,
            snapshot_cache=cache,
            parallel_workers=workers,
            batch_policy=BatchPolicy(max_batch_size=3) if batch else None,
            journal=True,
            checkpoint_every=checkpoint_every,
            crash_plan=crash_plan,
        )
        testbed.engine.schedule_workload(
            testbed.random_du_workload(8, start=0.0, interval=0.01, seed=1)
        )
        if schema_changes:
            testbed.engine.schedule_workload(
                testbed.schema_change_workload(
                    3, start=0.02, interval=0.03, seed=5
                )
            )
        testbed.run()
    assert not inversions, inversions
    extent = tuple(sorted(map(tuple, testbed.manager.mv.extent.rows())))
    return extent, testbed.committed_updates(), testbed


def test_crash_anywhere_serial_all_points_both_strategies():
    for strategy in (PESSIMISTIC, OPTIMISTIC):
        oracle_extent, oracle_committed, _ = run_config(strategy)
        fired_points = set()
        for point, hit in itertools.product(SERIAL_POINTS, (1, 2)):
            extent, committed, testbed = run_config(
                strategy, CrashPlan(point, hit)
            )
            injector = testbed.engine.crash_injector
            if injector.fired is not None:
                fired_points.add(injector.fired.point)
            assert extent == oracle_extent, (strategy.name, point, hit)
            assert committed == oracle_committed, (strategy.name, point, hit)
        # recover.replay only fires inside recover(); everything else
        # that is serially reachable must have actually crashed a run.
        reachable = set(SERIAL_POINTS) - {"recover.replay"}
        assert reachable <= fired_points


def test_crash_anywhere_parallel_points_with_cache_and_batching():
    for strategy, workers, cache, batch in itertools.product(
        (PESSIMISTIC, OPTIMISTIC), (2, 4), (False, True), (False, True)
    ):
        oracle_extent, oracle_committed, _ = run_config(
            strategy, workers=workers, cache=cache, batch=batch
        )
        fired_points = set()
        for point in PARALLEL_ONLY + ("install.post_journal",):
            extent, committed, testbed = run_config(
                strategy,
                CrashPlan(point, 1),
                workers=workers,
                cache=cache,
                batch=batch,
            )
            injector = testbed.engine.crash_injector
            if injector.fired is not None:
                fired_points.add(injector.fired.point)
            key = (strategy.name, workers, cache, batch, point)
            assert extent == oracle_extent, key
            assert committed == oracle_committed, key
        assert set(PARALLEL_ONLY) <= fired_points


def test_crash_anywhere_with_schema_changes():
    for strategy in (PESSIMISTIC, OPTIMISTIC):
        for workers in (None, 3):
            oracle_extent, oracle_committed, _ = run_config(
                strategy, workers=workers, schema_changes=True
            )
            for point in (
                "serial.pre_commit",
                "install.post_journal",
                "install.post_apply",
                "checkpoint.mid",
            ):
                for hit in (1, 2):
                    extent, committed, _ = run_config(
                        strategy,
                        CrashPlan(point, hit),
                        workers=workers,
                        schema_changes=True,
                    )
                    key = (strategy.name, workers, point, hit)
                    assert extent == oracle_extent, key
                    assert committed == oracle_committed, key


@given(
    workers=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    strategy=st.sampled_from([PESSIMISTIC, OPTIMISTIC]),
)
@settings(max_examples=20, deadline=None)
def test_crash_anywhere_random_plans_workers_1_to_8(
    workers, seed, strategy
):
    oracle_extent, oracle_committed, _ = run_config(
        strategy, workers=workers
    )
    extent, committed, _ = run_config(
        strategy, CrashPlan.random(seed), workers=workers
    )
    assert extent == oracle_extent
    assert committed == oracle_committed


def test_crash_during_replay_recovers():
    """A crash injected *during recovery* is survived by retrying
    recovery from the same durable state (idempotent replay)."""
    oracle_extent, oracle_committed, _ = run_config(
        PESSIMISTIC, checkpoint_every=100
    )
    testbed = build_testbed(
        PESSIMISTIC,
        tuples_per_relation=20,
        journal=True,
        checkpoint_every=100,
        crash_plan=CrashPlan("serial.pre_detect", 5),
    )
    testbed.engine.schedule_workload(
        testbed.random_du_workload(8, start=0.0, interval=0.01, seed=1)
    )
    try:
        testbed.scheduler.run()
        raise AssertionError("expected the planned crash")
    except SchedulerCrash:
        pass
    # Re-arm so the recovery attempt itself dies mid-replay, then run
    # the same loop recover_in_place uses (counting its retries).
    testbed.engine.crash_injector.arm(CrashPlan("recover.replay", 2))
    attempts = 0
    while True:
        simulate_crash(testbed.engine)
        try:
            recovered = testbed.recovery.recover()
            break
        except SchedulerCrash:
            attempts += 1
    testbed.manager = recovered.manager
    testbed.scheduler = recovered.scheduler
    testbed.recovery = recovered.harness
    testbed.run()
    extent = tuple(sorted(map(tuple, testbed.manager.mv.extent.rows())))
    assert attempts >= 1, "replay crash never fired"
    assert extent == oracle_extent
    assert testbed.committed_updates() == oracle_committed


def test_crash_recovery_multiview():
    def run_multi(crash_plan=None):
        testbed = build_testbed(
            PESSIMISTIC,
            tuples_per_relation=20,
            spans=((0, 3), (2, 6)),
            journal=True,
            checkpoint_every=2,
            crash_plan=crash_plan,
        )
        testbed.engine.schedule_workload(
            testbed.random_du_workload(8, start=0.0, interval=0.01, seed=1)
        )
        testbed.run()
        extents = {
            manager.view.name: tuple(
                sorted(map(tuple, manager.mv.extent.rows()))
            )
            for manager in testbed.manager.managers
        }
        return extents, testbed.committed_updates(), testbed

    oracle_extents, oracle_committed, _ = run_multi()
    for point in (
        "serial.pre_detect",
        "install.pre_journal",
        "install.post_journal",
        "install.post_apply",
        "checkpoint.mid",
        "serial.post_commit",
    ):
        extents, committed, testbed = run_multi(CrashPlan(point, 1))
        assert extents == oracle_extents, point
        assert committed == oracle_committed, point
        if testbed.engine.crash_injector.fired is not None:
            assert testbed.crash_reports


def test_file_backed_journal_and_checkpoint(tmp_path):
    oracle_extent, oracle_committed, _ = run_config(PESSIMISTIC)
    testbed = build_testbed(
        PESSIMISTIC,
        tuples_per_relation=20,
        journal=True,
        checkpoint_every=2,
        crash_plan=CrashPlan("serial.pre_commit", 2),
        journal_dir=tmp_path,
    )
    testbed.engine.schedule_workload(
        testbed.random_du_workload(8, start=0.0, interval=0.01, seed=1)
    )
    testbed.run()
    extent = tuple(sorted(map(tuple, testbed.manager.mv.extent.rows())))
    assert extent == oracle_extent
    assert testbed.committed_updates() == oracle_committed
    assert (tmp_path / "journal.jsonl").exists()
    assert (tmp_path / "checkpoint.json").exists()
    assert testbed.metrics.recoveries == 1


def test_journal_on_no_crash_run_is_bit_identical_to_journal_off():
    """Arming the journal must not perturb maintenance at all: the
    journal-on no-crash run *is* the oracle the equivalence tests use,
    so it has to match the plain run exactly (extent, committed set,
    and virtual finish time)."""
    plain = build_testbed(PESSIMISTIC, tuples_per_relation=20)
    plain.engine.schedule_workload(
        plain.random_du_workload(8, start=0.0, interval=0.01, seed=1)
    )
    plain.run()
    journaled = build_testbed(
        PESSIMISTIC, tuples_per_relation=20, journal=True
    )
    journaled.engine.schedule_workload(
        journaled.random_du_workload(8, start=0.0, interval=0.01, seed=1)
    )
    journaled.run()
    assert tuple(sorted(map(tuple, plain.manager.mv.extent.rows()))) == (
        tuple(sorted(map(tuple, journaled.manager.mv.extent.rows())))
    )
    assert plain.committed_updates() == journaled.committed_updates()
    assert plain.engine.clock.now == journaled.engine.clock.now
    assert journaled.metrics.journal_entries > 0


def _crash_in_recovery(workers, point, hit):
    """Crash the run right after an install's journal entry, then crash
    the first recovery attempt at ``point`` (``recover.replay`` fires
    only inside ``recover()``; a ``checkpoint.*`` point here hits the
    recovery checkpoint, after replay has logged the cut-off unit)."""
    testbed = build_testbed(
        PESSIMISTIC,
        tuples_per_relation=20,
        parallel_workers=workers,
        journal=True,
        checkpoint_every=100,
        crash_plan=CrashPlan("install.post_journal", 3),
    )
    testbed.engine.schedule_workload(
        testbed.random_du_workload(8, start=0.0, interval=0.01, seed=1)
    )
    with pytest.raises(SchedulerCrash):
        testbed.scheduler.run()
    testbed.engine.crash_injector.arm(CrashPlan(point, hit))
    recover_in_place(testbed)
    assert testbed.engine.crash_injector.fired.point == point
    testbed.run()
    return testbed


def _assert_install_log_is_committed_set(testbed, oracle_committed):
    """The install log's refs are the crash-free committed set, each
    logged once, and the read timeline sees every committed update."""
    engine = testbed.engine
    logged = [
        (source, seqno)
        for record in engine.install_log
        for source, seqno, _ in record.messages
    ]
    assert len(logged) == len(set(logged))
    assert frozenset(logged) == testbed.committed_updates()
    assert testbed.committed_updates() == oracle_committed
    timeline = ShardTimeline(
        engine.install_log, {testbed.manager.view.name: 0}
    )
    assert timeline.commits == sorted(
        engine.sources[source].log[seqno - 1].committed_at
        for source, seqno in oracle_committed
    )


#: every crash point with the worker counts that reach it
REACHABLE = [
    (point, workers)
    for point in CRASH_POINTS
    for workers in (None, 2)
    if not point.startswith("parallel." if workers is None else "serial.")
]


@pytest.mark.parametrize(("point", "workers"), REACHABLE)
def test_install_log_is_the_committed_set_after_every_crash_point(
    point, workers
):
    """The engine's install log says what committed, crash or not: a
    unit the crash cut off between its journal entry and its apply is
    logged by replay, stamped at the recovery instant."""
    _, oracle_committed, _ = run_config(PESSIMISTIC, workers=workers)
    if point == "recover.replay":
        testbed = _crash_in_recovery(workers, point, 2)
    else:
        _, _, testbed = run_config(
            PESSIMISTIC, CrashPlan(point, 1), workers=workers
        )
    assert testbed.crash_reports, "the crash never fired"
    _assert_install_log_is_committed_set(testbed, oracle_committed)
    if point in ("install.post_journal", "recover.replay"):
        recovered_at = {report.at for report in testbed.crash_reports}
        assert any(
            record.at in recovered_at for record in testbed.engine.install_log
        )


@pytest.mark.parametrize(
    "point", ("checkpoint.pre", "checkpoint.mid", "checkpoint.post")
)
def test_a_crash_inside_recovery_logs_the_replayed_unit_once(point):
    _, oracle_committed, _ = run_config(PESSIMISTIC)
    testbed = _crash_in_recovery(None, point, 1)
    _assert_install_log_is_committed_set(testbed, oracle_committed)
