"""The discrete-event engine: windows, interleaving, process driving."""

import pytest

from repro.relational.predicate import InPredicate, attr
from repro.relational.query import RelationRef, SPJQuery
from repro.relational.schema import RelationSchema
from repro.sim.costs import CostModel
from repro.sim.effects import Checkpoint, Delay, SourceQuery
from repro.sim.engine import QueryAnswer, SimEngine
from repro.sources.errors import BrokenQueryError
from repro.sources.messages import DataUpdate, RenameRelation
from repro.sources.source import DataSource
from repro.sources.workload import FixedUpdate, Workload, WorkloadItem
from tests.builders import drain_events, free_cost_model

R = RelationSchema.of("R", ["a"])


@pytest.fixture
def engine() -> SimEngine:
    engine = SimEngine(CostModel(query_base=1.0, query_per_probe_value=0.0,
                                 query_per_result_tuple=0.0,
                                 query_per_scanned_tuple=0.0))
    source = engine.add_source(DataSource("s"))
    source.create_relation(R, [("x",)])
    return engine


def scan() -> SourceQuery:
    query = SPJQuery(
        relations=(RelationRef("s", "R", "R"),),
        projection=(attr("R", "a"),),
    )
    return SourceQuery("s", query)


class TestEventOrdering:
    def test_events_fire_in_time_order(self, engine):
        order = []
        engine.schedule(2.0, lambda: order.append("b"))
        engine.schedule(1.0, lambda: order.append("a"))
        engine.advance_to(3.0)
        assert order == ["a", "b"]

    def test_ties_fire_in_schedule_order(self, engine):
        order = []
        engine.schedule(1.0, lambda: order.append("first"))
        engine.schedule(1.0, lambda: order.append("second"))
        engine.advance_to(1.0)
        assert order == ["first", "second"]

    def test_advance_to_next_event(self, engine):
        engine.schedule(5.0, lambda: None)
        assert engine.advance_to_next_event()
        assert engine.clock.now == 5.0
        assert not engine.advance_to_next_event()

    def test_drain(self, engine):
        engine.schedule(1.0, lambda: None)
        engine.schedule(7.0, lambda: None)
        drain_events(engine)
        assert engine.clock.now == 7.0
        assert engine.next_event_time() is None


class TestEffects:
    def test_delay_advances_and_charges(self, engine):
        engine.perform(Delay(2.5, kind="vs_rewrite"))
        assert engine.clock.now == 2.5
        assert engine.metrics.busy_time["vs_rewrite"] == 2.5

    def test_checkpoint_returns_now(self, engine):
        engine.perform(Delay(1.0))
        assert engine.perform(Checkpoint()) == 1.0

    def test_unknown_effect_rejected(self, engine):
        with pytest.raises(TypeError):
            engine.perform(object())

    def test_query_returns_answer_with_timestamp(self, engine):
        answer = engine.perform(scan())
        assert isinstance(answer, QueryAnswer)
        assert answer.answered_at == 1.0  # query_base
        assert ("x",) in answer.table

    def test_commit_inside_window_is_visible(self, engine):
        # query_base=1.0, commit at 0.5 -> included in the answer
        engine.schedule(
            0.5,
            lambda: engine.source("s").commit(
                DataUpdate.insert(R, [("y",)]), at=0.5
            ),
        )
        answer = engine.perform(scan())
        assert ("y",) in answer.table

    def test_commit_after_answer_not_visible(self, engine):
        engine.schedule(
            1.5,
            lambda: engine.source("s").commit(
                DataUpdate.insert(R, [("y",)]), at=1.5
            ),
        )
        answer = engine.perform(scan())
        assert ("y",) not in answer.table

    def test_schema_change_in_window_breaks_query(self, engine):
        engine.schedule(
            0.5,
            lambda: engine.source("s").commit(
                RenameRelation("R", "R2"), at=0.5
            ),
        )
        with pytest.raises(BrokenQueryError):
            engine.perform(scan())

    def test_probe_query_cost_uses_in_list(self):
        engine = SimEngine(
            CostModel(
                query_base=1.0,
                query_per_probe_value=0.1,
                query_per_result_tuple=0.0,
                query_per_scanned_tuple=100.0,  # must NOT be charged
            )
        )
        source = engine.add_source(DataSource("s"))
        source.create_relation(R, [("x",)])
        query = SPJQuery(
            relations=(RelationRef("s", "R", "R"),),
            projection=(attr("R", "a"),),
            selection=InPredicate(attr("R", "a"), frozenset({"x", "y"})),
        )
        engine.perform(SourceQuery("s", query))
        assert engine.clock.now == pytest.approx(1.2)


class TestWorkloadScheduling:
    def test_schedule_workload_commits(self, engine):
        workload = Workload()
        workload.add(
            1.0, "s", FixedUpdate(DataUpdate.insert(R, [("w",)]))
        )
        engine.schedule_workload(workload)
        drain_events(engine)
        assert ("w",) in engine.source("s").catalog.table("R")

    def test_none_intents_skipped(self, engine):
        class NullIntent:
            def materialize(self, source):
                return None

        engine.schedule_commit(WorkloadItem(1.0, "s", NullIntent()))
        drain_events(engine)
        assert len(engine.source("s").log) == 0

    def test_trace_records_commits(self):
        engine = SimEngine(free_cost_model(), trace=True)
        source = engine.add_source(DataSource("s"))
        source.create_relation(R)
        workload = Workload()
        workload.add(0.0, "s", FixedUpdate(DataUpdate.insert(R, [("t",)])))
        engine.schedule_workload(workload)
        drain_events(engine)
        commits = engine.tracer.of_kind("commit")
        assert len(commits) == 1
        assert "DU(R" in commits[0].detail


class TestRunProcess:
    def test_returns_generator_value(self, engine):
        def process():
            yield Delay(1.0)
            return "done"

        assert engine.run_process(process()) == "done"

    def test_immediate_return(self, engine):
        def process():
            return "now"
            yield  # pragma: no cover

        assert engine.run_process(process()) == "now"

    def test_broken_query_thrown_into_process(self, engine):
        engine.schedule(
            0.5,
            lambda: engine.source("s").commit(
                RenameRelation("R", "R2"), at=0.5
            ),
        )

        def process():
            try:
                yield scan()
            except BrokenQueryError:
                return "caught"
            return "missed"

        assert engine.run_process(process()) == "caught"
        assert engine.metrics.broken_queries == 1

    def test_unhandled_broken_query_propagates(self, engine):
        engine.schedule(
            0.5,
            lambda: engine.source("s").commit(
                RenameRelation("R", "R2"), at=0.5
            ),
        )

        def process():
            yield scan()

        with pytest.raises(BrokenQueryError):
            engine.run_process(process())

    def test_results_sent_back(self, engine):
        def process():
            answer = yield scan()
            return len(answer.table)

        assert engine.run_process(process()) == 1
