"""Wrapper transmission: engine-realized latency, link faults, FIFO."""

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, LinkFault
from repro.relational.schema import RelationSchema
from repro.sim.engine import SimEngine
from repro.sources.messages import DataUpdate
from repro.sources.source import DataSource
from repro.sources.wrapper import Wrapper
from tests.builders import free_cost_model

R = RelationSchema.of("R", ["a"])


def build(latency=0.0, plan=None):
    engine = SimEngine(free_cost_model())
    source = engine.add_source(DataSource("s"))
    source.create_relation(R)
    if plan is not None:
        engine.install_faults(FaultInjector(plan))
    received = []
    wrapper = Wrapper(source, received.append, latency=latency, engine=engine)
    return engine, source, wrapper, received


def insert(value):
    return DataUpdate.insert(R, [(value,)])


class TestLatency:
    def test_delivery_scheduled_at_commit_plus_latency(self):
        engine, source, wrapper, received = build(latency=0.5)
        source.commit(insert("x"), at=0.0)
        assert received == []  # committed, not yet delivered
        assert wrapper.in_flight == 1
        engine.advance_to(0.49)
        assert received == []
        engine.advance_to(0.5)
        assert len(received) == 1
        assert wrapper.in_flight == 0

    def test_zero_latency_with_engine_is_synchronous(self):
        engine, source, wrapper, received = build(latency=0.0)
        source.commit(insert("x"), at=0.0)
        assert len(received) == 1

    def test_without_engine_latency_is_ignored_synchronously(self):
        # The historical fast path: no engine, nothing to schedule on.
        source = DataSource("s")
        source.create_relation(R)
        received = []
        Wrapper(source, received.append, latency=5.0)
        source.commit(insert("x"), at=0.0)
        assert len(received) == 1

    def test_late_commit_during_advance_delivers_at_commit_time(self):
        engine, source, wrapper, received = build(latency=0.25)
        engine.schedule(1.0, lambda: source.commit(insert("x"), at=1.0))
        engine.advance_to(2.0)
        assert len(received) == 1
        assert received[0].committed_at == pytest.approx(1.0)


class TestLinkFaults:
    def test_fault_delay_composes_with_latency(self):
        plan = FaultPlan(link_faults=(LinkFault("s", 0, delay=0.3),))
        engine, source, wrapper, received = build(latency=0.2, plan=plan)
        source.commit(insert("x"), at=0.0)
        engine.advance_to(0.49)
        assert received == []
        engine.advance_to(0.5)  # 0.2 latency + 0.3 fault delay
        assert len(received) == 1

    def test_drop_with_redelivery_is_late_never_lost(self):
        plan = FaultPlan(
            link_faults=(
                LinkFault("s", 0, drops=2, redelivery_delay=0.4),
            )
        )
        engine, source, wrapper, received = build(plan=plan)
        source.commit(insert("x"), at=0.0)
        engine.advance_to(0.79)
        assert received == []
        engine.advance_to(0.8)
        assert len(received) == 1


class TestFifo:
    def test_delayed_message_holds_back_successors(self):
        """Per-source commit order must survive heterogeneous delays:
        Definition 4's semantic dependencies assume FIFO wrappers."""
        plan = FaultPlan(link_faults=(LinkFault("s", 0, delay=1.0),))
        engine, source, wrapper, received = build(plan=plan)
        source.commit(insert("first"), at=0.0)   # delayed to t=1.0
        source.commit(insert("second"), at=0.1)  # undelayed but behind
        engine.advance_to(0.5)
        assert received == []  # second waits for first
        engine.advance_to(1.0)
        assert [
            next(iter(m.payload.delta.items()))[0][0]
            for m in received
        ] == ["first", "second"]

    def test_pending_messages_reports_commit_order(self):
        plan = FaultPlan(link_faults=(LinkFault("s", 0, delay=1.0),))
        engine, source, wrapper, received = build(plan=plan)
        source.commit(insert("first"), at=0.0)
        source.commit(insert("second"), at=0.1)
        pending = wrapper.pending_messages()
        assert [m.committed_at for m in pending] == [0.0, 0.1]
        engine.advance_to(1.0)
        assert wrapper.pending_messages() == ()

    def test_counters_track_flight(self):
        plan = FaultPlan(link_faults=(LinkFault("s", 1, delay=0.5),))
        engine, source, wrapper, received = build(plan=plan)
        source.commit(insert("a"), at=0.0)  # sync (no delay, empty buffer)
        source.commit(insert("b"), at=0.0)  # delayed
        assert wrapper.forwarded == 2
        assert wrapper.delivered == 1
        assert wrapper.in_flight == 1
        engine.advance_to(0.5)
        assert wrapper.delivered == 2
