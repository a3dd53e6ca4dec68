"""The engine's retry loop: backoff charged to the clock, honest costs."""

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, TransientFault
from repro.faults.retry import RetryPolicy
from repro.relational.schema import RelationSchema
from repro.relational.query import RelationRef, SPJQuery
from repro.relational.predicate import attr
from repro.sim.effects import SourceQuery
from repro.sim.engine import QueryAnswer, SimEngine
from repro.sources.errors import (
    BrokenQueryError,
    QueryTimeoutError,
    SourceError,
    SourceUnavailableError,
    TransientSourceError,
)
from repro.sources.source import DataSource
from tests.builders import free_cost_model, no_retry_policy

R = RelationSchema.of("R", ["a"])


def build_engine(plan, policy, cost_model=None):
    engine = SimEngine(cost_model or free_cost_model())
    source = engine.add_source(DataSource("s"))
    source.create_relation(R, [("x",)])
    engine.install_faults(FaultInjector(plan), policy)
    return engine


def query_effect() -> SourceQuery:
    query = SPJQuery(
        relations=(RelationRef("s", "R", "R"),),
        projection=(attr("R", "a"),),
        joins=(),
    )
    return SourceQuery("s", query)


class TestErrorTaxonomy:
    """Transient failures must be distinguishable from broken queries."""

    def test_transient_is_not_a_broken_query(self):
        assert not issubclass(TransientSourceError, BrokenQueryError)
        assert issubclass(TransientSourceError, SourceError)

    def test_timeout_is_transient(self):
        assert issubclass(QueryTimeoutError, TransientSourceError)

    def test_unavailable_is_not_a_broken_query(self):
        assert not issubclass(SourceUnavailableError, BrokenQueryError)

    def test_unavailable_propagates_recovery_hint(self):
        last = TransientSourceError("s", "crashed", retry_at=4.5)
        down = SourceUnavailableError("s", 3, "exhausted", last_error=last)
        assert down.retry_at == pytest.approx(4.5)


class TestRetryLoop:
    def test_transient_is_retried_and_charged(self):
        policy = RetryPolicy(
            max_attempts=3, base_backoff=0.1, jitter=0.0, deadline=0.0
        )
        engine = build_engine(
            FaultPlan(transients=(TransientFault("s", 0),)), policy
        )
        answer = engine.perform(query_effect())
        assert isinstance(answer, QueryAnswer)
        assert len(answer.table) == 1
        assert engine.metrics.transient_failures == 1
        assert engine.metrics.retries == 1
        assert engine.metrics.backoff_time == pytest.approx(0.1)
        assert engine.clock.now == pytest.approx(0.1)  # free cost model

    def test_retry_overhead_from_cost_model(self):
        policy = RetryPolicy(
            max_attempts=2, base_backoff=0.1, jitter=0.0, deadline=0.0
        )
        import dataclasses

        cost = dataclasses.replace(free_cost_model(), retry_overhead=0.05)
        engine = build_engine(
            FaultPlan(transients=(TransientFault("s", 0),)), policy, cost
        )
        engine.perform(query_effect())
        assert engine.metrics.backoff_time == pytest.approx(0.15)

    def test_exhaustion_raises_unavailable_not_broken(self):
        policy = RetryPolicy(
            max_attempts=2, base_backoff=0.01, jitter=0.0, deadline=0.0
        )
        plan = FaultPlan(
            transients=tuple(TransientFault("s", i) for i in range(4))
        )
        engine = build_engine(plan, policy)
        with pytest.raises(SourceUnavailableError) as caught:
            engine.perform(query_effect())
        assert not isinstance(caught.value, BrokenQueryError)
        assert caught.value.attempts == 2
        assert engine.metrics.exhausted_queries == 1
        assert engine.metrics.broken_queries == 0

    def test_timeout_consumes_virtual_time(self):
        policy = RetryPolicy(
            max_attempts=2, base_backoff=0.1, jitter=0.0, deadline=0.0
        )
        plan = FaultPlan(
            transients=(
                TransientFault("s", 0, kind="timeout", timeout=0.5),
            )
        )
        engine = build_engine(plan, policy)
        engine.perform(query_effect())
        # 0.5s waiting for the timeout + 0.1s backoff, all on the clock.
        assert engine.clock.now == pytest.approx(0.6)

    def test_deadline_exhausts_before_max_attempts(self):
        policy = RetryPolicy(
            max_attempts=100, base_backoff=1.0, jitter=0.0, deadline=0.5
        )
        plan = FaultPlan(
            transients=tuple(TransientFault("s", i) for i in range(10))
        )
        engine = build_engine(plan, policy)
        with pytest.raises(SourceUnavailableError) as caught:
            engine.perform(query_effect())
        assert "deadline" in str(caught.value)

    def test_no_retries_policy_is_terminal_on_first_fault(self):
        engine = build_engine(
            FaultPlan(transients=(TransientFault("s", 0),)),
            no_retry_policy(),
        )
        with pytest.raises(SourceUnavailableError):
            engine.perform(query_effect())
        assert engine.metrics.retries == 0

    def test_clean_plan_leaves_query_path_untouched(self):
        engine = build_engine(FaultPlan(), RetryPolicy())
        answer = engine.perform(query_effect())
        assert isinstance(answer, QueryAnswer)
        assert engine.metrics.transient_failures == 0
        assert engine.metrics.retries == 0

    def test_install_faults_arms_future_sources(self):
        engine = SimEngine(free_cost_model())
        engine.install_faults(
            FaultInjector(
                FaultPlan(transients=(TransientFault("late", 0),))
            ),
            no_retry_policy(),
        )
        late = engine.add_source(DataSource("late"))
        late.create_relation(R, [("x",)])
        query = SPJQuery(
            relations=(RelationRef("late", "R", "R"),),
            projection=(attr("R", "a"),),
            joins=(),
        )
        with pytest.raises(SourceUnavailableError):
            engine.perform(SourceQuery("late", query))
