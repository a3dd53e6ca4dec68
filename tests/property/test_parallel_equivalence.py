"""The parallel executor is observationally equivalent to serial Dyno.

Theorem 2: every topological order of the dependency graph is a legal
maintenance order.  The parallel executor runs the ready antichain on N
workers, so for any workload and any worker count the final view extent
and the committed (source, seqno) set must be byte-identical to the
serial scheduler's — that is the whole correctness claim of the
executor, checked here end to end on randomized streams.

The dispatch audit is also replayed: no unit may ever have been
dispatched while an in-flight unit touched one of its (source,
relation) keys, and SC-bearing or batch units must have run solo
(the barrier rule that covers all conflict-dependency edges).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.strategies import OPTIMISTIC, PESSIMISTIC
from repro.experiments.testbed import build_testbed
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.views.consistency import check_convergence

strategies = st.sampled_from([PESSIMISTIC, OPTIMISTIC])


def _run(strategy, workers, seed, du_count, sc_count, fault_seed=None):
    testbed = build_testbed(
        strategy, tuples_per_relation=30, parallel_workers=workers
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
    testbed.run()
    extent = tuple(sorted(map(tuple, testbed.manager.mv.extent.rows())))
    processed = frozenset(testbed.scheduler.stats.processed_messages)
    return testbed, extent, processed


def _touched_keys(messages):
    return {
        (message.source, relation)
        for message in messages
        for relation in message.touched_relations()
    }


def _audit(scheduler):
    """Replay the dispatch log against the gating invariants."""
    for record in scheduler.dispatch_audit:
        unit_messages = record["unit"]
        in_flight = record["in_flight"]
        is_barrier = len(unit_messages) > 1 or any(
            not message.is_data_update for message in unit_messages
        )
        if is_barrier:
            assert not in_flight, (
                "SC/batch unit dispatched with busy workers"
            )
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
    _audit(parallel.scheduler)


@given(
    strategy=strategies,
    seed=st.integers(min_value=0, max_value=10_000),
    workers=st.integers(min_value=2, max_value=8),
    du_count=st.integers(min_value=1, max_value=15),
    sc_count=st.integers(min_value=0, max_value=2),
)
@settings(max_examples=15, deadline=None)
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
    _audit(parallel.scheduler)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known bug: under this draw's fault plan the *serial* arm "
    "ends INCONSISTENT (39 rows against a 37-row recompute); the "
    "parallel arm converges",
)
def test_under_faults_pessimistic_seed_15():
    """A draw of :func:`test_parallel_matches_serial_oracle_under_faults`
    that fails, found by the ``explore`` profile and pinned here."""
    test_parallel_matches_serial_oracle_under_faults.hypothesis.inner_test(
        strategy=PESSIMISTIC, seed=15, workers=2, du_count=11, sc_count=2
    )
