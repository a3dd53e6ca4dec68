"""The parallel executor is observationally equivalent to serial Dyno.

Theorem 2: every topological order of the dependency graph is a legal
maintenance order.  The parallel executor runs the ready antichain on N
workers, so for any workload and any worker count the final view extent
and the committed (source, seqno) set must be byte-identical to the
serial scheduler's — that is the whole correctness claim of the
executor, checked here end to end on randomized streams.

The dispatches are also replayed (``tests/recorders.py``): no unit may ever have been
dispatched while an in-flight unit touched one of its (source,
relation) keys, and SC-bearing units must have run solo (the barrier
rule that covers all conflict-dependency edges; DU-only batches stay
leapfrog-eligible).  Every parallel arm runs under the no-pick verdict
guard: wherever a round skips its ready-set scan, the full scan runs
anyway and must find nothing.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.strategies import OPTIMISTIC, PESSIMISTIC
from repro.experiments.testbed import build_testbed
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.maintenance.grouping import BatchPolicy
from repro.views.consistency import check_convergence
from tests.recorders import (
    commit_order_guarded,
    record_dispatches,
    verdict_guarded,
)

strategies = st.sampled_from([PESSIMISTIC, OPTIMISTIC])


def _run(
    strategy,
    workers,
    seed,
    du_count,
    sc_count,
    fault_seed=None,
    batch_policy=None,
):
    with commit_order_guarded() as inversions, verdict_guarded() as skips:
        testbed = build_testbed(
            strategy,
            tuples_per_relation=30,
            parallel_workers=workers,
            batch_policy=batch_policy,
        )
        if fault_seed is not None:
            plan = FaultPlan.random(
                fault_seed,
                sources=list(testbed.engine.sources),
                horizon=2.0,
                max_crashes=1,
                crash_length=(0.1, 0.5),
            )
            testbed.engine.install_faults(FaultInjector(plan))
        testbed.engine.schedule_workload(
            testbed.random_du_workload(
                du_count, start=0.0, interval=0.01, seed=seed
            )
        )
        if sc_count:
            testbed.engine.schedule_workload(
                testbed.schema_change_workload(
                    sc_count, start=0.05, interval=0.07, seed=seed + 1
                )
            )
        if workers is not None:
            testbed.dispatches = record_dispatches(testbed.scheduler)
        testbed.run()
    assert not inversions, inversions
    testbed.verdict_skips = skips[0]
    extent = tuple(sorted(map(tuple, testbed.manager.mv.extent.rows())))
    processed = testbed.committed_updates()
    return testbed, extent, processed


def _touched_keys(messages):
    return {
        (message.source, relation)
        for message in messages
        for relation in message.touched_relations()
    }


def _audit(testbed):
    """Replay the dispatch log against the gating invariants."""
    for record in testbed.dispatches:
        unit_messages = record["unit"]
        in_flight = record["in_flight"]
        is_barrier = any(
            not message.is_data_update for message in unit_messages
        )
        if is_barrier:
            assert not in_flight, "SC unit dispatched with busy workers"
        keys = _touched_keys(unit_messages)
        for running in in_flight:
            assert not (keys & _touched_keys(running)), (
                "dispatched while an in-flight unit touched "
                f"{keys & _touched_keys(running)}"
            )


@given(
    strategy=strategies,
    seed=st.integers(min_value=0, max_value=10_000),
    workers=st.integers(min_value=1, max_value=8),
    du_count=st.integers(min_value=1, max_value=20),
    sc_count=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=30, deadline=None)
# The no-pick verdict keyed without the worker generations: a release
# frees the keys its unit held, yet the round skips its scan.
@example(
    strategy=PESSIMISTIC, seed=0, workers=4, du_count=4, sc_count=0
)
def test_parallel_matches_serial_oracle(
    strategy, seed, workers, du_count, sc_count
):
    serial, serial_extent, serial_processed = _run(
        strategy, None, seed, du_count, sc_count
    )
    parallel, extent, processed = _run(
        strategy, workers, seed, du_count, sc_count
    )
    assert parallel.manager.umq.is_empty()
    assert extent == serial_extent
    assert processed == serial_processed
    report = check_convergence(parallel.manager)
    assert report.consistent, report.summary()
    _audit(parallel)


@given(
    strategy=strategies,
    seed=st.integers(min_value=0, max_value=10_000),
    workers=st.integers(min_value=2, max_value=8),
    du_count=st.integers(min_value=1, max_value=15),
    sc_count=st.integers(min_value=0, max_value=2),
)
@settings(max_examples=15, deadline=None)
# The no-pick verdict keyed without the quarantined sources: a verdict
# recorded while ``src1`` was quarantined outlives the lift.
@example(
    strategy=PESSIMISTIC, seed=46, workers=3, du_count=3, sc_count=0
)
def test_parallel_matches_serial_oracle_under_faults(
    strategy, seed, workers, du_count, sc_count
):
    """Same equivalence with a PR 1 fault plan injected in both runs."""
    fault_seed = seed + 77
    serial, serial_extent, serial_processed = _run(
        strategy, None, seed, du_count, sc_count, fault_seed
    )
    parallel, extent, processed = _run(
        strategy, workers, seed, du_count, sc_count, fault_seed
    )
    assert parallel.manager.umq.is_empty()
    assert extent == serial_extent
    assert processed == serial_processed
    report = check_convergence(parallel.manager)
    assert report.consistent, report.summary()
    _audit(parallel)


@given(
    strategy=strategies,
    seed=st.integers(min_value=0, max_value=10_000),
    workers=st.integers(min_value=2, max_value=8),
    du_count=st.integers(min_value=2, max_value=20),
    sc_count=st.integers(min_value=0, max_value=2),
)
@settings(max_examples=15, deadline=None)
def test_parallel_matches_serial_oracle_with_batches(
    strategy, seed, workers, du_count, sc_count
):
    """Same equivalence with adaptive group maintenance in both runs:
    the parallel executor regroups the queue every dispatch round, and
    DU-only batches dispatch beside other units."""
    policy = BatchPolicy(max_batch_size=4)
    serial, serial_extent, serial_processed = _run(
        strategy, None, seed, du_count, sc_count, batch_policy=policy
    )
    parallel, extent, processed = _run(
        strategy, workers, seed, du_count, sc_count, batch_policy=policy
    )
    assert parallel.manager.umq.is_empty()
    assert extent == serial_extent
    assert processed == serial_processed
    report = check_convergence(parallel.manager)
    assert report.consistent, report.summary()
    _audit(parallel)


def test_the_verdict_guard_checks_every_kind_of_arm():
    """The guard is not vacuous: it checks skipped scans in a faulted run
    with a quarantine, an SC barrier, an abort and taint restarts, and
    in a batched run whose DU-only batch dispatched beside another
    unit."""
    faulted, _, _ = _run(PESSIMISTIC, 4, 0, 15, 2, fault_seed=77)
    stats = faulted.scheduler.stats
    assert faulted.verdict_skips > 0
    assert stats.quarantine_events and stats.tainted_restarts > 0
    assert faulted.engine.metrics.aborts > 0
    assert any(
        not message.is_data_update
        for record in faulted.dispatches
        for message in record["unit"]
    )
    batched, _, _ = _run(
        PESSIMISTIC, 2, 0, 15, 0, batch_policy=BatchPolicy(max_batch_size=4)
    )
    assert batched.verdict_skips > 0
    assert any(
        len(record["unit"]) > 1 and record["in_flight"]
        for record in batched.dispatches
    )


def test_under_faults_pessimistic_seed_15():
    """A draw of :func:`test_parallel_matches_serial_oracle_under_faults`
    found by the ``explore`` profile: a repeat break's forced merge once
    put two of ``src2``'s ``R4`` inserts behind its ``R4`` rename, and the
    serial arm kept 39 rows against a 37-row recompute."""
    test_parallel_matches_serial_oracle_under_faults.hypothesis.inner_test(
        strategy=PESSIMISTIC, seed=15, workers=2, du_count=11, sc_count=2
    )

