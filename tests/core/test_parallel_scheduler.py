"""Unit tests for the parallel maintenance executor."""

import pytest

from repro.core.parallel import ParallelScheduler
from repro.core.strategies import BLIND_MERGE, NAIVE, OPTIMISTIC, PESSIMISTIC
from repro.experiments.testbed import (
    build_testbed,
    fixed_drop_attribute,
    fixed_rename_relation,
)
from tests.recorders import record_dispatches


def _du_testbed(workers, du_count=24, tuples=60, seed=11):
    testbed = build_testbed(
        PESSIMISTIC, tuples_per_relation=tuples, parallel_workers=workers
    )
    testbed.engine.schedule_workload(
        testbed.random_du_workload(
            du_count, start=0.05, interval=0.005, seed=seed
        )
    )
    return testbed


def test_worker_count_validation():
    testbed = build_testbed(PESSIMISTIC, tuples_per_relation=10)
    with pytest.raises(ValueError):
        ParallelScheduler(testbed.manager, PESSIMISTIC, workers=0)


@pytest.mark.parametrize("strategy", [NAIVE, BLIND_MERGE], ids=str)
def test_baseline_strategies_are_refused(strategy):
    """The dispatcher runs ``detect_and_correct()`` on a cycle whatever
    the strategy: a baseline is refused rather than run partly as Dyno."""
    testbed = build_testbed(PESSIMISTIC, tuples_per_relation=10)
    with pytest.raises(ValueError, match=f"{strategy.name}.*parallel_workers"):
        ParallelScheduler(testbed.manager, strategy, workers=2)


def test_makespan_beats_serial_arm():
    serial = _du_testbed(1)
    serial.run()
    parallel = _du_testbed(4)
    parallel.run()
    assert parallel.metrics.makespan < serial.metrics.makespan
    assert parallel.metrics.peak_parallelism > 1
    # Identical observable outcome.
    assert parallel.extent_rows() == serial.extent_rows()


def test_makespan_bounded_by_busy_time():
    """Makespan can never exceed the serial sum of worker busy time
    plus coordinator charges — and with real concurrency it is
    strictly below the busy-time sum."""
    testbed = _du_testbed(4)
    testbed.run()
    metrics = testbed.metrics
    busy_sum = sum(metrics.worker_busy_time.values())
    assert metrics.makespan < busy_sum
    utilization = metrics.worker_utilization()
    assert 0.0 < max(utilization.values()) <= 1.0


def test_channel_contention_creates_batches():
    """More workers than channel slots per source: waiting batchable
    probes must coalesce into combined round trips."""
    testbed = _du_testbed(6, du_count=30)
    testbed.run()
    metrics = testbed.metrics
    assert metrics.batched_queries > 0
    assert metrics.batch_round_trips > 0
    # A batch carries at least two queries per round trip.
    assert metrics.batched_queries >= 2 * metrics.batch_round_trips


def test_sc_units_run_as_barriers():
    testbed = build_testbed(
        PESSIMISTIC, tuples_per_relation=60, parallel_workers=4
    )
    workload = testbed.random_du_workload(
        20, start=0.05, interval=0.005, seed=3
    )
    workload.add(0.11, "src1", fixed_drop_attribute(0))
    workload.add(0.14, "src2", fixed_rename_relation(2))
    testbed.engine.schedule_workload(workload)
    dispatches = record_dispatches(testbed.scheduler)
    testbed.run()
    barrier_dispatches = 0
    for record in dispatches:
        if any(not message.is_data_update for message in record["unit"]):
            barrier_dispatches += 1
            assert record["in_flight"] == []
    # Correction may merge the two SCs into one batch unit; at least
    # one barrier dispatch must have happened, always with no company.
    assert barrier_dispatches >= 1
    assert testbed.check_consistency()


def test_broken_query_aborts_only_one_worker():
    """A broken query (optimistic, SC raced past a DU) aborts that
    unit, requeues it, and the run still converges."""
    testbed = build_testbed(
        OPTIMISTIC, tuples_per_relation=60, parallel_workers=4
    )
    workload = testbed.random_du_workload(
        24, start=0.05, interval=0.004, seed=5
    )
    workload.add(0.07, "src1", fixed_drop_attribute(0))
    testbed.engine.schedule_workload(workload)
    testbed.run()
    assert testbed.manager.umq.is_empty()
    assert testbed.check_consistency()
    # Every message committed exactly once despite any aborts.
    processed = [
        (source, seqno)
        for record in testbed.engine.install_log
        for source, seqno, _ in record.messages
    ]
    assert len(processed) == len(testbed.committed_updates()) == 25


def test_dispatch_accounting():
    testbed = _du_testbed(4)
    testbed.run()
    metrics = testbed.metrics
    stats = testbed.scheduler.stats
    assert metrics.dispatched_units >= len(testbed.committed_updates()) > 0
    assert metrics.makespan == pytest.approx(testbed.engine.clock.now)
    assert stats.iterations == metrics.dispatched_units


def test_workers_one_is_serial_semantics():
    """The 1-worker arm must process units strictly one at a time."""
    testbed = _du_testbed(1)
    dispatches = record_dispatches(testbed.scheduler)
    testbed.run()
    assert dispatches
    for record in dispatches:
        assert record["in_flight"] == []
    assert testbed.metrics.peak_parallelism == 1
