"""Adaptive group maintenance is observationally invisible (hypothesis).

Merging a safe run of UMQ units into one voluntary batch, and
coalescing same-relation deltas inside it, must not change what the
view converges to or which updates get committed: for any workload —
DU-only or conflicting, serial or parallel, faulted or not, snapshot
cache on or off — the final view extent and the committed
(source, seqno) set with batching ON must be identical to the
batching-OFF run.  Only the round/cost metrics may differ.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.strategies import OPTIMISTIC, PESSIMISTIC
from repro.experiments.testbed import build_testbed
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.maintenance.grouping import BatchPolicy
from repro.views.consistency import check_convergence

strategies = st.sampled_from([PESSIMISTIC, OPTIMISTIC])

#: keys drawn from a narrow domain so coalesced deltas actually
#: overlap (insert/delete pairs cancel inside a batch)
HOT_KEY_DOMAIN = 8


def _run(
    strategy,
    batching,
    seed,
    du_count,
    sc_count,
    workers=None,
    fault_seed=None,
    snapshot_cache=False,
):
    testbed = build_testbed(
        strategy,
        tuples_per_relation=30,
        parallel_workers=workers,
        snapshot_cache=snapshot_cache,
        batch_policy=BatchPolicy(max_batch_size=8) if batching else None,
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
    testbed.run()
    extent = testbed.extent_rows()["V"]
    processed = testbed.committed_updates()
    return testbed, extent, processed


@given(
    strategy=strategies,
    seed=st.integers(min_value=0, max_value=10_000),
    du_count=st.integers(min_value=1, max_value=20),
    sc_count=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=25, deadline=None)
def test_batching_matches_unbatched_serial(
    strategy, seed, du_count, sc_count
):
    off, extent_off, processed_off = _run(
        strategy, False, seed, du_count, sc_count
    )
    on, extent_on, processed_on = _run(
        strategy, True, seed, du_count, sc_count
    )
    assert extent_on == extent_off
    assert processed_on == processed_off
    report = check_convergence(on.manager.manager_for("V"))
    assert report.consistent, report.summary()
    # Batching can only remove maintenance rounds, never add them.
    assert (
        on.metrics.maintenance_rounds <= off.metrics.maintenance_rounds
    )
    assert on.metrics.grouped_messages >= on.metrics.batches_formed


@given(
    strategy=strategies,
    seed=st.integers(min_value=0, max_value=10_000),
    workers=st.integers(min_value=1, max_value=8),
    du_count=st.integers(min_value=1, max_value=15),
    sc_count=st.integers(min_value=0, max_value=2),
)
@settings(max_examples=15, deadline=None)
def test_batching_matches_unbatched_parallel(
    strategy, seed, workers, du_count, sc_count
):
    off, extent_off, processed_off = _run(
        strategy, False, seed, du_count, sc_count, workers
    )
    on, extent_on, processed_on = _run(
        strategy, True, seed, du_count, sc_count, workers
    )
    assert on.manager.umq.is_empty()
    assert extent_on == extent_off
    assert processed_on == processed_off
    report = check_convergence(on.manager.manager_for("V"))
    assert report.consistent, report.summary()


@given(
    strategy=strategies,
    seed=st.integers(min_value=0, max_value=10_000),
    workers=st.integers(min_value=2, max_value=6),
    du_count=st.integers(min_value=1, max_value=12),
    sc_count=st.integers(min_value=0, max_value=2),
)
@settings(max_examples=10, deadline=None)
def test_batching_matches_unbatched_under_faults(
    strategy, seed, workers, du_count, sc_count
):
    """Same equivalence with a PR 1 fault plan injected in both arms
    (quarantine deferral suspends grouping but must not break it)."""
    fault_seed = seed + 77
    off, extent_off, processed_off = _run(
        strategy, False, seed, du_count, sc_count, workers, fault_seed
    )
    on, extent_on, processed_on = _run(
        strategy, True, seed, du_count, sc_count, workers, fault_seed
    )
    assert extent_on == extent_off
    assert processed_on == processed_off
    report = check_convergence(on.manager.manager_for("V"))
    assert report.consistent, report.summary()


@given(
    strategy=strategies,
    seed=st.integers(min_value=0, max_value=10_000),
    du_count=st.integers(min_value=1, max_value=15),
    sc_count=st.integers(min_value=0, max_value=2),
)
@settings(max_examples=10, deadline=None)
def test_batching_composes_with_snapshot_cache(
    strategy, seed, du_count, sc_count
):
    """Batching ON + cache ON still matches the all-off run: the batch
    probes through the same cache fast path as singleton units."""
    off, extent_off, processed_off = _run(
        strategy, False, seed, du_count, sc_count
    )
    on, extent_on, processed_on = _run(
        strategy, True, seed, du_count, sc_count, snapshot_cache=True
    )
    assert extent_on == extent_off
    assert processed_on == processed_off
    report = check_convergence(on.manager.manager_for("V"))
    assert report.consistent, report.summary()


def test_dense_stream_actually_batches():
    """Deterministic regression: a dense DU stream forms voluntary
    batches and cuts rounds (guards against the policy silently
    degrading to no-op)."""
    on, _extent, _processed = _run(PESSIMISTIC, True, 5, 40, 0)
    assert on.metrics.batches_formed > 0
    assert on.metrics.grouped_messages > 0
    assert on.metrics.maintenance_rounds < 40
