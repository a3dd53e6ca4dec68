"""End-to-end convergence under randomized concurrent workloads.

The paper's correctness claim (Section 4.4): Dyno always reaches a legal
order, so after quiescence the materialized view reflects the final
source states — for *any* interleaving of data updates and schema
changes, under both the pessimistic and the optimistic strategy.  The
blind-merge baseline must also converge (it merges more than needed but
never reorders illegally).  No run may queue two updates of one
relation against their commit order (``tests/recorders.py``).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.strategies import BLIND_MERGE, OPTIMISTIC, PESSIMISTIC
from repro.experiments.testbed import build_testbed
from repro.views.consistency import check_convergence
from tests.recorders import commit_order_guarded

strategies = st.sampled_from([PESSIMISTIC, OPTIMISTIC, BLIND_MERGE])


@given(
    strategy=strategies,
    seed=st.integers(min_value=0, max_value=10_000),
    du_count=st.integers(min_value=0, max_value=25),
    sc_count=st.integers(min_value=0, max_value=5),
    du_interval=st.floats(min_value=0.0, max_value=2.0),
    sc_interval=st.floats(min_value=0.0, max_value=30.0),
)
@settings(max_examples=40, deadline=None)
def test_mixed_workload_converges(
    strategy, seed, du_count, sc_count, du_interval, sc_interval
):
    with commit_order_guarded() as inversions:
        testbed = build_testbed(strategy, tuples_per_relation=30, seed=seed)
        testbed.engine.schedule_workload(
            testbed.random_du_workload(
                du_count, start=0.0, interval=du_interval, seed=seed
            )
        )
        testbed.engine.schedule_workload(
            testbed.schema_change_workload(
                sc_count, start=0.0, interval=sc_interval, seed=seed + 1
            )
        )
        testbed.run()
    assert not inversions, inversions
    assert testbed.manager.umq.is_empty()
    report = check_convergence(testbed.manager)
    assert report.consistent, report.summary()


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    du_count=st.integers(min_value=1, max_value=30),
)
@settings(max_examples=25, deadline=None)
def test_du_only_stream_converges_with_compensation(seed, du_count):
    """Types (1)-(2) anomalies only: compensation must be exact."""
    with commit_order_guarded() as inversions:
        testbed = build_testbed(PESSIMISTIC, tuples_per_relation=30, seed=seed)
        # Dense arrivals maximize the concurrency windows.
        testbed.engine.schedule_workload(
            testbed.random_du_workload(
                du_count, start=0.0, interval=0.01, seed=seed
            )
        )
        testbed.run()
    assert not inversions, inversions
    report = check_convergence(testbed.manager)
    assert report.consistent, report.summary()
    assert testbed.metrics.aborts == 0  # DUs never break queries


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    sc_count=st.integers(min_value=1, max_value=6),
    sc_interval=st.floats(min_value=0.0, max_value=30.0),
)
@settings(max_examples=25, deadline=None)
def test_sc_only_stream_converges(seed, sc_count, sc_interval):
    """Types (3)-(4): schema-change storms still converge."""
    with commit_order_guarded() as inversions:
        testbed = build_testbed(OPTIMISTIC, tuples_per_relation=30, seed=seed)
        testbed.engine.schedule_workload(
            testbed.schema_change_workload(
                sc_count, start=0.0, interval=sc_interval, seed=seed
            )
        )
        testbed.run()
    assert not inversions, inversions
    report = check_convergence(testbed.manager)
    assert report.consistent, report.summary()
