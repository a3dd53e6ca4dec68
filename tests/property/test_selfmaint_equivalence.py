"""The auxiliary self-maintenance store is observationally invisible.

A replica-served answer must be byte-equal to the answer a zero-latency
round trip would have returned at the same instant: the replica is the
projection of the live relation onto the view's needed columns, synced
through every committed gap delta before serving (an SC in the gap
drops it, exactly the snapshot cache's Theorem 1 rule).  So for any
workload — DU-only or conflicting, serial or parallel, cached or not,
batched or not, faulted or crash-recovered — the final view extent and
the committed (source, seqno) set with the store ON must be identical
to the store-OFF run.  Only the cost/round-trip metrics may differ.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.strategies import OPTIMISTIC, PESSIMISTIC
from repro.experiments.testbed import build_testbed
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.maintenance.grouping import BatchPolicy
from repro.views.consistency import check_convergence
from tests.property.test_snapshot_cache_equivalence import (
    assert_local_serves_are_free,
)
from tests.recorders import commit_order_guarded, record_local_serves

strategies = st.sampled_from([PESSIMISTIC, OPTIMISTIC])

#: keys drawn from a narrow domain so probes repeat while the relation
#: extents keep churning (replica sync work)
HOT_KEY_DOMAIN = 8


def _run(
    strategy,
    self_maintenance,
    seed,
    du_count,
    sc_count,
    workers=None,
    fault_seed=None,
    snapshot_cache=False,
    batching=False,
    crash_plan=None,
):
    with commit_order_guarded() as inversions:
        testbed = build_testbed(
            strategy,
            tuples_per_relation=30,
            parallel_workers=workers,
            snapshot_cache=snapshot_cache,
            self_maintenance=self_maintenance,
            batch_policy=BatchPolicy(max_batch_size=8) if batching else None,
            crash_plan=crash_plan,
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
                du_count,
                start=0.0,
                interval=0.01,
                seed=seed,
                key_domain=HOT_KEY_DOMAIN,
            )
        )
        if sc_count:
            testbed.engine.schedule_workload(
                testbed.schema_change_workload(
                    sc_count, start=0.05, interval=0.07, seed=seed + 1
                )
            )
        testbed.local_serves = record_local_serves(
            testbed.engine, lambda: testbed.scheduler
        )
        testbed.run()
    assert not inversions, inversions
    extent = tuple(sorted(map(tuple, testbed.manager.mv.extent.rows())))
    committed = testbed.committed_updates()
    return testbed, extent, committed


@given(
    strategy=strategies,
    seed=st.integers(min_value=0, max_value=10_000),
    du_count=st.integers(min_value=1, max_value=20),
    sc_count=st.integers(min_value=0, max_value=3),
    snapshot_cache=st.booleans(),
    batching=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_aux_matches_bare_serial(
    strategy, seed, du_count, sc_count, snapshot_cache, batching
):
    off, extent_off, committed_off = _run(
        strategy, False, seed, du_count, sc_count,
        snapshot_cache=snapshot_cache, batching=batching,
    )
    on, extent_on, committed_on = _run(
        strategy, True, seed, du_count, sc_count,
        snapshot_cache=snapshot_cache, batching=batching,
    )
    assert extent_on == extent_off
    assert committed_on == committed_off
    report = check_convergence(on.manager)
    assert report.consistent, report.summary()
    # On a DU-only stream the store can only remove round trips.  (With
    # SCs in the mix the *count* may legitimately differ either way:
    # aux-served DU units finish sooner, which changes how queued SCs
    # coalesce into units and hence how many adaptation scans travel —
    # the converged state above is the invariant, not the trip tally.)
    if sc_count == 0:
        assert (
            on.metrics.source_round_trips
            <= off.metrics.source_round_trips
        )
    # Every saved trip is accounted to exactly one local mechanism.
    assert on.metrics.saved_round_trips == (
        on.metrics.aux_hits + on.metrics.cache_hits
    )


@given(
    strategy=strategies,
    seed=st.integers(min_value=0, max_value=10_000),
    workers=st.integers(min_value=1, max_value=8),
    du_count=st.integers(min_value=1, max_value=15),
    sc_count=st.integers(min_value=0, max_value=2),
    snapshot_cache=st.booleans(),
)
@settings(max_examples=15, deadline=None)
def test_aux_matches_bare_parallel(
    strategy, seed, workers, du_count, sc_count, snapshot_cache
):
    off, extent_off, committed_off = _run(
        strategy, False, seed, du_count, sc_count, workers,
        snapshot_cache=snapshot_cache,
    )
    on, extent_on, committed_on = _run(
        strategy, True, seed, du_count, sc_count, workers,
        snapshot_cache=snapshot_cache,
    )
    assert on.manager.umq.is_empty()
    assert extent_on == extent_off
    assert committed_on == committed_off
    report = check_convergence(on.manager)
    assert report.consistent, report.summary()
    assert_local_serves_are_free(on)
    if snapshot_cache:
        # Tier order: the cache is consulted exactly when aux missed.
        assert (
            on.metrics.cache_hits + on.metrics.cache_misses
            == on.metrics.aux_misses
        )
    else:
        assert {record["tier"] for record in on.local_serves} <= {
            "aux"
        }


@given(
    strategy=strategies,
    seed=st.integers(min_value=0, max_value=10_000),
    workers=st.integers(min_value=2, max_value=6),
    du_count=st.integers(min_value=1, max_value=12),
    sc_count=st.integers(min_value=0, max_value=2),
)
@settings(max_examples=10, deadline=None)
def test_aux_matches_bare_under_faults(
    strategy, seed, workers, du_count, sc_count
):
    """Same equivalence with a PR 1 fault plan injected in both arms."""
    fault_seed = seed + 77
    off, extent_off, committed_off = _run(
        strategy, False, seed, du_count, sc_count, workers, fault_seed
    )
    on, extent_on, committed_on = _run(
        strategy, True, seed, du_count, sc_count, workers, fault_seed
    )
    assert extent_on == extent_off
    assert committed_on == committed_off
    report = check_convergence(on.manager)
    assert report.consistent, report.summary()


def test_aux_under_faults_pessimistic_seed_809():
    """A draw of :func:`test_aux_matches_bare_under_faults` found by the
    ``explore`` profile: a repeat break's forced merge once put an
    ``R5`` insert behind its ``R5`` rename, and the aux-on view kept 37
    rows against a 36-row recompute."""
    test_aux_matches_bare_under_faults.hypothesis.inner_test(
        strategy=PESSIMISTIC, seed=809, workers=3, du_count=11, sc_count=2
    )


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    du_count=st.integers(min_value=4, max_value=16),
    sc_count=st.integers(min_value=0, max_value=2),
    crash_hit=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=10, deadline=None)
def test_aux_matches_bare_across_crashes(
    seed, du_count, sc_count, crash_hit
):
    """Replicas are volatile: a crash clears them, recovery restores
    only checkpointed entries at or below the committed watermark — and
    the recovered run still converges to the store-off oracle."""
    from repro.recovery import CrashPlan

    off, extent_off, committed_off = _run(
        PESSIMISTIC, False, seed, du_count, sc_count
    )
    on, extent_on, committed_on = _run(
        PESSIMISTIC, True, seed, du_count, sc_count,
        crash_plan=CrashPlan("serial.pre_maintain", crash_hit),
    )
    assert extent_on == extent_off
    assert committed_on == committed_off
    report = check_convergence(on.manager)
    assert report.consistent, report.summary()


def test_hot_key_du_stream_is_fully_self_maintained():
    """Deterministic regression: a DU-only stream over a seeded store
    never pays a source round trip — every unit is self-maintained
    (guards against the store silently degrading to all-miss)."""
    on, _extent, _committed = _run(PESSIMISTIC, True, 5, 40, 0)
    assert on.metrics.aux_hits > 0
    assert on.metrics.aux_misses == 0
    assert on.metrics.source_round_trips == 0
    assert on.metrics.data_unit_rounds > 0
    assert (
        on.metrics.self_maintained_units == on.metrics.data_unit_rounds
    )


def test_schema_change_invalidates_then_reseeds():
    """An SC drops the touched replicas (Theorem 1 rule); adaptation's
    travelling scans re-seed them, so later DU probes hit again."""
    with_sc, _extent, _committed = _run(PESSIMISTIC, True, 5, 40, 2)
    assert with_sc.metrics.aux_invalidations_sc >= 1
    assert with_sc.metrics.aux_hits > 0
    report = check_convergence(with_sc.manager)
    assert report.consistent, report.summary()
