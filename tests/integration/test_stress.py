"""Larger-scale stress runs (still seconds, not minutes)."""

import pytest

from repro.core.strategies import OPTIMISTIC, PESSIMISTIC
from repro.experiments.testbed import build_testbed
from repro.views.consistency import check_convergence


@pytest.mark.parametrize("strategy", [PESSIMISTIC, OPTIMISTIC])
def test_long_mixed_storm(strategy):
    """500 data updates + 20 schema changes at the worst-case interval."""
    testbed = build_testbed(strategy, tuples_per_relation=60, seed=17)
    testbed.engine.schedule_workload(
        testbed.random_du_workload(500, start=0.0, interval=0.25, seed=18)
    )
    testbed.engine.schedule_workload(
        testbed.schema_change_workload(20, start=0.0, interval=17.0, seed=19)
    )
    testbed.run()
    assert testbed.manager.umq.is_empty()
    report = check_convergence(testbed.manager.manager_for("V"))
    assert report.consistent, report.summary()
    assert testbed.metrics.maintained_updates >= 500


def test_poisson_arrival_storm():
    """Bursty Poisson arrivals instead of uniform spacing."""
    import random

    from repro.sources.workload import InsertRandomRow, Workload
    from tests.builders import poisson_arrival_times
    from repro.experiments.testbed import source_name

    testbed = build_testbed(PESSIMISTIC, tuples_per_relation=60, seed=21)
    rng = random.Random(22)
    workload = Workload()
    for at in poisson_arrival_times(rng, rate=3.0, count=120):
        workload.add(
            at,
            source_name(rng.randrange(3)),
            InsertRandomRow(rng, key_factory=lambda r: r.randrange(1, 61)),
        )
    testbed.engine.schedule_workload(workload)
    testbed.engine.schedule_workload(
        testbed.schema_change_workload(5, start=5.0, interval=12.0, seed=23)
    )
    testbed.run()
    report = check_convergence(testbed.manager.manager_for("V"))
    assert report.consistent, report.summary()


def test_deep_rename_chains():
    """Every relation renamed four times while updates keep flowing."""
    from repro.sources.workload import RenameRandomRelation, Workload
    import random

    testbed = build_testbed(PESSIMISTIC, tuples_per_relation=60, seed=29)
    rng = random.Random(30)
    workload = Workload()
    at = 0.5
    for _round in range(4):
        for relation_index in range(6):
            workload.add(
                at, f"src{relation_index // 2 + 1}", RenameRandomRelation(rng)
            )
            at += 3.0
    testbed.engine.schedule_workload(workload)
    testbed.engine.schedule_workload(
        testbed.random_du_workload(60, start=0.0, interval=1.0, seed=31)
    )
    testbed.run()
    report = check_convergence(testbed.manager.manager_for("V"))
    assert report.consistent, report.summary()
