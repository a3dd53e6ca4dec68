"""The parallel dispatcher's work on a ``sqlite_parallel``-shaped world,
pinned by count.

The spine's ``sqlite_parallel`` workload (inserts into sqlite sources,
4 workers) at tier-1 scale, seed 5.  Most dispatch rounds find an idle
worker and a queued unit yet dispatch nothing: every queued unit waits
on a key an in-flight unit holds.  A round whose scan inputs have not
changed since a scan that found nothing does not scan again
(ALGORITHMS.md §Dispatch gating, *the no-pick verdict*), so the
ready-set scans are pinned by count while the schedule they produce —
dispatches, scheduler steps, makespan, every metric — is pinned as
unmoved.
"""

import dataclasses

from repro.core.parallel import ParallelScheduler
from repro.core.strategies import PESSIMISTIC
from repro.experiments.testbed import build_testbed, make_du_workload
from tests.recorders import counted_ready_units

#: ``ready_units`` calls over the run (910 with a scan every round)
READY_UNITS = 259
DISPATCHED = 120
STEPS = 1384
MAKESPAN = 12.409340000000016


def _run() -> tuple:
    testbed = build_testbed(
        PESSIMISTIC,
        tuples_per_relation=200,
        backend="sqlite",
        parallel_workers=4,
    )
    testbed.engine.schedule_workload(
        make_du_workload(
            testbed.tuples_per_relation,
            DISPATCHED,
            0.05,
            0.1,
            insert_fraction=1.0,
            seed=5,
        )
    )
    scheduler = testbed.scheduler
    steps = [0]
    step = scheduler.step

    def counted_step():
        steps[0] += 1
        return step()

    scheduler.step = counted_step
    with counted_ready_units() as scans:
        testbed.run()
    assert testbed.check_consistency()
    return testbed.engine.metrics, steps[0], scans[0]


def test_ready_set_scans_are_pinned_and_the_schedule_unmoved():
    metrics, steps, scans = _run()
    assert scans == READY_UNITS
    assert metrics.dispatched_units == DISPATCHED
    assert steps == STEPS
    assert metrics.makespan == MAKESPAN


def test_the_verdict_moves_no_metric(monkeypatch):
    """With the verdict never holding every round scans, as before the
    verdict existed: every metric — each modelled charge, the makespan,
    the round trips — comes out identical, and only the scans grow."""
    metrics, steps, scans = _run()
    monkeypatch.setattr(
        ParallelScheduler, "_verdict_holds", lambda self, inputs: False
    )
    full, full_steps, full_scans = _run()
    assert dataclasses.asdict(full) == dataclasses.asdict(metrics)
    assert full_steps == steps
    assert full_scans > scans
