"""Scheduler accounting: deferral passes must be charged and counted.

Regression tests for three accounting bugs:

* a quarantine-deferral pass that demotes nothing used to charge no
  detection time and count no graph build, even though it computed the
  full dependency graph;
* ``stats.deferred_units`` used to re-count every held unit on every
  pass, inflating the counter by held-count x rounds over one outage;
* the deferred-DU refresh used to schedule the next deadline from
  ``now`` (drifting the cadence by the processing lateness) instead of
  from the previous deadline.
"""

from __future__ import annotations

from repro.core.scheduler import DynoScheduler
from repro.core.strategies import PESSIMISTIC
from repro.experiments.testbed import build_testbed
from repro.sources.messages import DataUpdate, UpdateMessage
from tests.conftest import CATALOG_SCHEMA, ITEM_SCHEMA, build_bookstore


def _catalog_du(seqno: int) -> UpdateMessage:
    """Footprint: retailer.Store + retailer.Item (never library)."""
    return UpdateMessage(
        "library",
        seqno,
        float(seqno),
        DataUpdate.insert(CATALOG_SCHEMA, []),
    )


def _item_du(seqno: int) -> UpdateMessage:
    """Footprint includes library.Catalog."""
    return UpdateMessage(
        "retailer",
        seqno,
        float(seqno),
        DataUpdate.insert(ITEM_SCHEMA, []),
    )


class TestDeferralPassAccounting:
    def test_pass_without_demotion_is_charged_and_counted(self):
        engine, stack = build_bookstore()
        scheduler = DynoScheduler(stack)
        # Active unit already ahead of the deferred one: no demotion.
        stack.umq.receive(_catalog_du(1))
        stack.umq.receive(_item_du(1))
        scheduler._quarantine("library", engine.clock.now + 50.0)

        builds = engine.metrics.graph_builds
        charged = engine.metrics.busy_time["detection"]
        assert scheduler._make_runnable_head() is True
        assert engine.metrics.graph_builds == builds + 1
        assert engine.metrics.busy_time["detection"] > charged

    def test_all_deferred_pass_is_charged_and_counted(self):
        engine, stack = build_bookstore()
        scheduler = DynoScheduler(stack)
        stack.umq.receive(_catalog_du(1))
        stack.umq.receive(_item_du(1))
        # Every unit's footprint reads retailer: nothing is runnable.
        scheduler._quarantine("retailer", engine.clock.now + 50.0)

        builds = engine.metrics.graph_builds
        charged = engine.metrics.busy_time["detection"]
        assert scheduler._make_runnable_head() is False
        assert engine.metrics.graph_builds == builds + 1
        assert engine.metrics.busy_time["detection"] > charged

    def test_demotion_reorders_and_charges(self):
        engine, stack = build_bookstore()
        scheduler = DynoScheduler(stack)
        deferred_head = _item_du(1)
        runnable = _catalog_du(1)
        stack.umq.receive(deferred_head)
        stack.umq.receive(runnable)
        scheduler._quarantine("library", engine.clock.now + 50.0)

        charged = engine.metrics.busy_time["detection"]
        assert scheduler._make_runnable_head() is True
        assert stack.umq.head().head_message is runnable
        assert engine.metrics.busy_time["detection"] > charged


class TestDeferredUnitCounting:
    def test_counted_once_per_stay_not_once_per_pass(self):
        engine, stack = build_bookstore()
        scheduler = DynoScheduler(stack)
        stack.umq.receive(_catalog_du(1))
        stack.umq.receive(_item_du(1))
        scheduler._quarantine("library", engine.clock.now + 50.0)

        scheduler._make_runnable_head()
        assert scheduler.stats.deferred_units == 1
        # Further passes over the same outage must not re-count.
        scheduler._make_runnable_head()
        scheduler._make_runnable_head()
        assert scheduler.stats.deferred_units == 1

    def test_new_unit_joining_the_outage_is_counted(self):
        engine, stack = build_bookstore()
        scheduler = DynoScheduler(stack)
        stack.umq.receive(_catalog_du(1))
        stack.umq.receive(_item_du(1))
        scheduler._quarantine("library", engine.clock.now + 50.0)

        scheduler._make_runnable_head()
        assert scheduler.stats.deferred_units == 1
        stack.umq.receive(_item_du(2))
        scheduler._make_runnable_head()
        assert scheduler.stats.deferred_units == 2

    def test_next_outage_counts_afresh(self):
        engine, stack = build_bookstore()
        scheduler = DynoScheduler(stack)
        stack.umq.receive(_catalog_du(1))
        stack.umq.receive(_item_du(1))
        scheduler._quarantine("library", engine.clock.now + 1.0)
        scheduler._make_runnable_head()
        assert scheduler.stats.deferred_units == 1

        engine.advance_to(engine.clock.now + 2.0)
        scheduler._lift_due_quarantines()
        assert not scheduler._quarantined

        scheduler._quarantine("library", engine.clock.now + 50.0)
        scheduler._make_runnable_head()
        assert scheduler.stats.deferred_units == 2


class TestDeferredRefreshCadence:
    def test_deadlines_anchor_to_the_cadence_not_to_lateness(self):
        """DUs arriving at t=12 are processed late (the t=5 and t=10
        deadlines passed while the queue was empty); the next deadline
        must still be the cadence point 15, not now+interval=17."""
        testbed = build_testbed(PESSIMISTIC, tuples_per_relation=40, seed=3)
        testbed.scheduler.detach()
        testbed.scheduler = DynoScheduler(
            testbed.manager, PESSIMISTIC, defer_du_interval=5.0
        )
        testbed.engine.schedule_workload(
            testbed.random_du_workload(2, 12.0, 0.4, seed=4)
        )
        testbed.engine.schedule_workload(
            testbed.random_du_workload(2, 16.0, 0.2, seed=5)
        )

        refresh_times = []
        original_apply = testbed.manager.manager_for("V").mv.apply

        def recording_apply(delta):
            refresh_times.append(testbed.engine.clock.now)
            original_apply(delta)

        testbed.manager.manager_for("V").mv.apply = recording_apply
        testbed.run()

        # Catch-up processing at ~12, then the anchored deadline at 15;
        # with the drifting bug the second refresh lands at ~17 instead.
        assert any(15.0 <= at < 16.0 for at in refresh_times)
        assert not any(16.5 <= at < 19.5 for at in refresh_times)
