"""Theorem 1: a broken query implies an unsafe dependency.

We instrument the scheduler so that at the instant any broken query is
handled, pre-exec detection over the live UMQ (with speculative VS
footprints) must report at least one unsafe dependency — the breaking
schema change has already arrived (zero wrapper latency) and must
conflict with something ahead of it in the queue.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduler import DynoScheduler
from repro.core.strategies import OPTIMISTIC, PESSIMISTIC
from repro.experiments.testbed import build_testbed
from tests.detection_oracle import detect


class _TheoremCheckingScheduler(DynoScheduler):
    def __init__(self, manager, strategy):
        super().__init__(manager, strategy)
        self.checked_breaks = 0

    def _handle_broken_query(self, unit, broken):
        result = detect(
            self.umq.messages(),
            self.manager.manager_for("V").view.query,
            rewritten_query=self._speculative_rewrite,
        )
        assert result.unsafe, (
            f"broken query at {broken.source} without any unsafe "
            f"dependency in the UMQ — Theorem 1 violated"
        )
        assert any(
            self.umq.messages()[dep.before_index].source == broken.source
            for dep in result.unsafe
        ), "no unsafe dependency originates from the breaking source"
        self.checked_breaks += 1
        super()._handle_broken_query(unit, broken)


@given(
    strategy=st.sampled_from([PESSIMISTIC, OPTIMISTIC]),
    seed=st.integers(min_value=0, max_value=5_000),
    sc_count=st.integers(min_value=1, max_value=5),
    sc_interval=st.floats(min_value=0.5, max_value=25.0),
    du_count=st.integers(min_value=0, max_value=15),
)
@settings(max_examples=30, deadline=None)
def test_broken_query_implies_unsafe_dependency(
    strategy, seed, sc_count, sc_interval, du_count
):
    testbed = build_testbed(strategy, tuples_per_relation=30, seed=seed)
    scheduler = _TheoremCheckingScheduler(testbed.manager, strategy)
    testbed.engine.schedule_workload(
        testbed.random_du_workload(du_count, 0.0, 0.2, seed=seed)
    )
    testbed.engine.schedule_workload(
        testbed.schema_change_workload(
            sc_count, 0.0, sc_interval, seed=seed + 1
        )
    )
    scheduler.run()
    # The assertion inside the scheduler is the theorem check; here we
    # only confirm the run finished and the check fired when breaks
    # happened.
    assert scheduler.checked_breaks == testbed.metrics.aborts
