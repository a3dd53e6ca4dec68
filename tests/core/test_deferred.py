"""Deferred data-update maintenance (the [5]-style scheduler option)."""

import pytest

from repro.core.scheduler import DynoScheduler
from repro.core.strategies import PESSIMISTIC
from repro.experiments.testbed import build_testbed


def loaded_testbed(defer=None, du_count=20, sc=False, seed=3):
    testbed = build_testbed(PESSIMISTIC, tuples_per_relation=40, seed=seed)
    testbed.scheduler.detach()  # drop the default scheduler's UMQ listener
    testbed.scheduler = DynoScheduler(
        testbed.manager, PESSIMISTIC, defer_du_interval=defer
    )
    testbed.engine.schedule_workload(
        testbed.random_du_workload(du_count, 0.0, 0.5, seed=seed + 1)
    )
    if sc:
        testbed.engine.schedule_workload(
            testbed.schema_change_workload(1, 3.0, 1.0, seed=seed + 2)
        )
    return testbed


class TestDeferredMode:
    def test_fewer_refreshes_same_result(self):
        eager = loaded_testbed(defer=None)
        eager.run()
        deferred = loaded_testbed(defer=20.0)
        deferred.run()
        assert eager.check_consistency()
        assert deferred.check_consistency()
        assert deferred.extent_rows() == eager.extent_rows()
        assert (
            deferred.metrics.view_refreshes < eager.metrics.view_refreshes
        )

    def test_refresh_cadence_respected(self):
        testbed = loaded_testbed(defer=5.0, du_count=20)
        refresh_times = []

        original_apply = testbed.manager.manager_for("V").mv.apply

        def recording_apply(delta):
            refresh_times.append(testbed.engine.clock.now)
            original_apply(delta)

        testbed.manager.manager_for("V").mv.apply = recording_apply
        testbed.run()
        # refreshes land at/after the 5s boundaries, not per update
        assert refresh_times
        assert all(at >= 5.0 for at in refresh_times)
        gaps = [b - a for a, b in zip(refresh_times, refresh_times[1:])]
        assert all(gap >= 4.0 for gap in gaps)

    def test_schema_change_preempts_deferral(self):
        testbed = loaded_testbed(defer=1000.0, du_count=10, sc=True)
        testbed.run()
        # the SC at t=3 forced processing long before the 1000s deferral
        assert testbed.manager.manager_for("V").view.version >= 1
        assert testbed.check_consistency()
        assert testbed.metrics.maintained_updates == 11

    def test_disabled_by_default(self):
        testbed = loaded_testbed(defer=None, du_count=5)
        testbed.run()
        # eager: one refresh per view-relevant DU (some may miss the view)
        assert testbed.metrics.view_refreshes >= 1
        assert testbed.scheduler.defer_du_interval is None
