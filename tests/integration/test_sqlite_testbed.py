"""The full evaluation machinery on SQLite-backed sources."""

import pytest

from repro.core.strategies import OPTIMISTIC, PESSIMISTIC
from repro.experiments.testbed import build_testbed
from repro.views.consistency import check_convergence


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        build_testbed(PESSIMISTIC, tuples_per_relation=10, backend="oracle")


@pytest.mark.parametrize("strategy", [PESSIMISTIC, OPTIMISTIC])
def test_mixed_workload_on_sqlite(strategy):
    testbed = build_testbed(
        strategy, tuples_per_relation=150, backend="sqlite"
    )
    testbed.engine.schedule_workload(
        testbed.random_du_workload(15, start=0.0, interval=0.3, seed=5)
    )
    testbed.engine.schedule_workload(
        testbed.schema_change_workload(3, start=1.0, interval=8.0, seed=6)
    )
    testbed.run()
    report = check_convergence(testbed.manager.manager_for("V"))
    assert report.consistent, report.summary()


def test_backends_agree_on_final_state():
    """Same workload, both backends: identical final view extents."""
    extents = []
    for backend in ("memory", "sqlite"):
        testbed = build_testbed(
            PESSIMISTIC,
            tuples_per_relation=100,
            backend=backend,
            seed=4,
        )
        testbed.engine.schedule_workload(
            testbed.random_du_workload(12, 0.0, 0.4, seed=9)
        )
        testbed.engine.schedule_workload(
            testbed.schema_change_workload(2, 1.0, 9.0, seed=10)
        )
        testbed.run()
        extents.append(testbed.extent_rows())
    assert extents[0] == extents[1]


def test_failed_commit_counted_not_fatal():
    """A stale fixed intent racing its own source's schema change is the
    source's local failure; the run continues and converges."""
    from repro.sources.messages import DropAttribute, RenameRelation
    from repro.sources.workload import FixedUpdate, Workload

    testbed = build_testbed(PESSIMISTIC, tuples_per_relation=50)
    workload = Workload()
    workload.add(0.0, "src1", FixedUpdate(RenameRelation("R1", "R1__v2")))
    # stale: R1 no longer exists when this fires
    workload.add(1.0, "src1", FixedUpdate(DropAttribute("R1", "B1")))
    testbed.engine.schedule_workload(workload)
    testbed.run()
    assert testbed.metrics.failed_commits == 1
    assert testbed.check_consistency()
