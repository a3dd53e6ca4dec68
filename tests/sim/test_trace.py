"""Typed execution traces."""

from repro.sim.costs import CostModel
from repro.sim.trace import ABORT, BROKEN, COMMIT, CORRECTION, QUERY, Tracer, TraceEvent


class TestTracer:
    def test_disabled_records_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.record(1.0, COMMIT, "x")
        assert len(tracer) == 0

    def test_enabled_records(self):
        tracer = Tracer(enabled=True)
        tracer.record(1.0, COMMIT, "x")
        tracer.record(2.0, QUERY, "y")
        assert len(tracer) == 2
        assert [event.kind for event in tracer] == [COMMIT, QUERY]

    def test_of_kind(self):
        tracer = Tracer(enabled=True)
        tracer.record(1.0, COMMIT, "a")
        tracer.record(2.0, ABORT, "b")
        tracer.record(3.0, COMMIT, "c")
        assert [event.detail for event in tracer.of_kind(COMMIT)] == [
            "a",
            "c",
        ]

    def test_timeline_limit(self):
        tracer = Tracer(enabled=True)
        for at in range(5):
            tracer.record(float(at), QUERY, f"q{at}")
        lines = tracer.timeline(limit=2).splitlines()
        assert len(lines) == 2
        assert "q4" in lines[-1]

    def test_clear(self):
        tracer = Tracer(enabled=True)
        tracer.record(1.0, QUERY, "x")
        tracer.clear()
        assert len(tracer) == 0

    def test_event_str_format(self):
        event = TraceEvent(1.5, COMMIT, "detail here")
        text = str(event)
        assert "1.500" in text and "commit" in text and "detail here" in text


class TestEndToEndTrace:
    def test_scheduler_records_aborts_and_corrections(self):
        from repro.core.scheduler import DynoScheduler
        from repro.core.strategies import OPTIMISTIC
        from repro.sources.messages import DropAttribute, RenameRelation
        from repro.sources.workload import FixedUpdate, Workload
        from tests.conftest import build_bookstore

        engine, manager = build_bookstore(CostModel(query_base=1.0))
        engine.tracer.enabled = True
        workload = Workload()
        workload.add(
            0.0, "library", FixedUpdate(DropAttribute("Catalog", "Review"))
        )
        workload.add(
            3.5, "retailer", FixedUpdate(RenameRelation("Item", "Item2"))
        )
        engine.schedule_workload(workload)
        DynoScheduler(manager, OPTIMISTIC).run()

        assert engine.tracer.of_kind(COMMIT)
        assert engine.tracer.of_kind(QUERY)
        assert engine.tracer.of_kind(BROKEN)
        assert engine.tracer.of_kind(ABORT)
        assert engine.tracer.of_kind(CORRECTION)
        # abort events carry the wasted time
        assert "wasted" in engine.tracer.of_kind(ABORT)[0].detail
        # chronological order
        times = [event.at for event in engine.tracer]
        assert times == sorted(times)


class TestDisabledTracerFormatsNothing:
    def test_du_only_run_describes_no_message(self, monkeypatch):
        # A commit's trace detail is ``message.describe()``, a pass over
        # the whole delta: with the tracer off no site may build it.
        from repro.core.strategies import PESSIMISTIC
        from repro.experiments.testbed import build_testbed
        from repro.sources.messages import UpdateMessage

        calls = []
        describe = UpdateMessage.describe

        def counted(message):
            calls.append(message)
            return describe(message)

        monkeypatch.setattr(UpdateMessage, "describe", counted)
        testbed = build_testbed(PESSIMISTIC, tuples_per_relation=40)
        testbed.engine.schedule_workload(
            testbed.random_du_workload(12, start=0.05, interval=0.05)
        )
        testbed.run()
        assert not testbed.engine.tracer.enabled
        assert testbed.engine.install_log
        assert calls == []

    def test_sc_run_that_aborts_describes_no_unit(self, monkeypatch):
        # An abort's trace detail is ``unit.describe()``, a pass over
        # every message of the unit: with the tracer off no abort may
        # build it.
        from repro.core.scheduler import DynoScheduler
        from repro.core.strategies import OPTIMISTIC
        from repro.sources.messages import (
            DropAttribute,
            RenameRelation,
            UpdateMessage,
        )
        from repro.sources.workload import FixedUpdate, Workload
        from repro.views.umq import MaintenanceUnit
        from tests.conftest import build_bookstore

        calls = []
        for cls in (UpdateMessage, MaintenanceUnit):
            describe = cls.describe

            def counted(self, _describe=describe):
                calls.append(self)
                return _describe(self)

            monkeypatch.setattr(cls, "describe", counted)
        engine, manager = build_bookstore(CostModel(query_base=1.0))
        workload = Workload()
        workload.add(
            0.0, "library", FixedUpdate(DropAttribute("Catalog", "Review"))
        )
        workload.add(
            3.5, "retailer", FixedUpdate(RenameRelation("Item", "Item2"))
        )
        engine.schedule_workload(workload)
        DynoScheduler(manager, OPTIMISTIC).run()
        assert not engine.tracer.enabled
        assert engine.metrics.aborts >= 1
        assert calls == []
