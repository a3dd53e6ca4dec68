"""Graceful scheduler degradation: classify, quarantine, defer, resume."""

import pytest

from repro import (
    DataUpdate,
    DyDaSystem,
    FaultPlan,
    OPTIMISTIC,
    PESSIMISTIC,
    RelationSchema,
    RetryPolicy,
)
from repro.faults.plan import CrashWindow, TransientFault
from tests.builders import aggressive_retry_policy

R = RelationSchema.of("R", ["k", "v"])
S = RelationSchema.of("S", ["k", "v"])
T = RelationSchema.of("T", ["k", "w"])

#: retries exhaust quickly and deterministically
FAST_EXHAUST = RetryPolicy(
    max_attempts=2,
    base_backoff=0.05,
    jitter=0.0,
    deadline=0.0,
    quarantine_probe=1.0,
)


def build(strategy, plan, policy=FAST_EXHAUST):
    """Sources a, b, c; view VA over a alone, view VBC joining b and c.

    Updates to a never read b or c, so maintenance of a-updates must
    keep running while c is down; updates to b probe c and hit faults.
    """
    system = DyDaSystem(
        strategy=strategy, fault_plan=plan, retry_policy=policy
    )
    a = system.add_source("a")
    b = system.add_source("b")
    c = system.add_source("c")
    a.create_relation(R, [("1", "x")])
    b.create_relation(S, [("1", "y")])
    c.create_relation(T, [("1", "z")])
    system.define_view("CREATE VIEW VA AS SELECT R.k, R.v FROM a.R R")
    system.define_view(
        "CREATE VIEW VBC AS SELECT S.k, T.w FROM b.S S, c.T T "
        "WHERE S.k = T.k"
    )
    return system


@pytest.mark.parametrize("strategy", [PESSIMISTIC, OPTIMISTIC])
class TestQuarantine:
    def test_crash_quarantines_and_recovers(self, strategy):
        plan = FaultPlan(crashes=(CrashWindow("c", 0.0, 3.0),))
        system = build(strategy, plan)
        system.schedule(0.0, "b", DataUpdate.insert(S, [("2", "y2")]))
        system.schedule(0.0, "a", DataUpdate.insert(R, [("2", "x2")]))
        stats = system.run()

        # The outage was classified, never flagged as a broken query.
        assert stats.false_flags_avoided >= 1
        assert stats.genuine_broken_flags == 0
        assert system.metrics.broken_queries == 0
        assert system.metrics.exhausted_queries >= 1

        # Quarantine honoured the crash window's recovery hint.
        assert stats.quarantine_events
        now, source, until = stats.quarantine_events[0]
        assert source == "c"
        assert until == pytest.approx(3.0)
        assert stats.resumed_sources >= 1

        # Both views converge after recovery and drain.
        assert system.check("VA").consistent
        assert system.check("VBC").consistent

    def test_independent_maintenance_continues_during_outage(
        self, strategy
    ):
        plan = FaultPlan(crashes=(CrashWindow("c", 0.0, 3.0),))
        system = build(strategy, plan)
        # b first: its unit heads the queue and hits the crashed c.
        system.schedule(0.0, "b", DataUpdate.insert(S, [("2", "y2")]))
        system.schedule(0.0, "a", DataUpdate.insert(R, [("2", "x2")]))
        system.run()
        stats = system.stats

        # The a-unit was promoted past the parked b-unit.
        assert stats.deferred_units >= 1
        assert system.check("VA").consistent
        assert system.check("VBC").consistent

    def test_outage_never_pollutes_abort_metrics(self, strategy):
        """An exhausted source is an outage, not an anomaly: none of the
        paper's abort accounting may move."""
        plan = FaultPlan(crashes=(CrashWindow("c", 0.0, 3.0),))
        system = build(strategy, plan)
        system.schedule(0.0, "b", DataUpdate.insert(S, [("2", "y2")]))
        system.run()
        assert system.metrics.aborts == 0
        assert system.metrics.abort_cost == 0.0
        assert sum(system.metrics.anomalies.values()) == 0

    def test_repeated_exhaustion_drains_transient_slots(self, strategy):
        """Attempt-indexed transients: each retry consumes the next
        slot, so a finite plan is always drained eventually."""
        plan = FaultPlan(
            transients=tuple(TransientFault("c", i) for i in range(6))
        )
        system = build(strategy, plan)
        system.schedule(0.0, "b", DataUpdate.insert(S, [("2", "y2")]))
        stats = system.run()
        # 6 faulty slots / 2 attempts per round = 3 quarantine rounds.
        assert stats.false_flags_avoided == 3
        assert len(stats.quarantine_events) == 3
        assert stats.resumed_sources == 3
        assert system.check("VBC").consistent

    def test_fault_counters_live_on_metrics(self, strategy):
        plan = FaultPlan(transients=(TransientFault("c", 0),))
        system = build(
            strategy,
            plan,
            RetryPolicy(max_attempts=3, jitter=0.0, deadline=0.0),
        )
        system.schedule(0.0, "b", DataUpdate.insert(S, [("2", "y2")]))
        stats = system.run()
        metrics = system.metrics
        assert metrics.retries == 1
        assert metrics.transient_failures == 1
        assert metrics.backoff_time > 0.0
        # the scheduler keeps no second copy of an engine counter
        assert not hasattr(stats, "retries")


class TestTransientsNeverFlagged:
    @pytest.mark.parametrize("strategy", [PESSIMISTIC, OPTIMISTIC])
    def test_du_only_stream_raises_no_broken_flags(self, strategy):
        plan = FaultPlan.random(13, ["a", "b", "c"], horizon=5.0)
        system = build(strategy, plan, aggressive_retry_policy())
        for i in range(4):
            system.schedule(
                i * 0.3, "b", DataUpdate.insert(S, [(str(i + 2), "y")])
            )
            system.schedule(
                i * 0.3, "c", DataUpdate.insert(T, [(str(i + 2), "w")])
            )
        stats = system.run()
        assert system.metrics.transient_failures > 0
        assert stats.genuine_broken_flags == 0
        assert system.metrics.broken_queries == 0
        assert system.check("VBC").consistent
