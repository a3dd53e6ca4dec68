"""The injector realizes a plan: attempt slots, crash windows, links."""

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    CrashWindow,
    FaultPlan,
    LinkFault,
    TransientFault,
)
from repro.sources.errors import QueryTimeoutError, TransientSourceError


class TestQueryPath:
    def test_attempt_indexing_includes_clean_attempts(self):
        plan = FaultPlan(
            transients=(TransientFault("a", 1), TransientFault("a", 3))
        )
        injector = FaultInjector(plan)
        injector.on_query("a", 0.0)  # attempt 0: clean
        with pytest.raises(TransientSourceError):
            injector.on_query("a", 0.0)  # attempt 1: injected
        injector.on_query("a", 0.0)  # attempt 2: clean again
        with pytest.raises(TransientSourceError):
            injector.on_query("a", 0.0)  # attempt 3: counted the clean ones
        assert injector.stats.injected_transients == 2

    def test_attempt_counters_are_per_source(self):
        plan = FaultPlan(transients=(TransientFault("a", 0),))
        injector = FaultInjector(plan)
        injector.on_query("b", 0.0)  # does not consume a's slot
        with pytest.raises(TransientSourceError):
            injector.on_query("a", 0.0)

    def test_timeout_carries_elapsed_time(self):
        plan = FaultPlan(
            transients=(
                TransientFault("a", 0, kind="timeout", timeout=0.75),
            )
        )
        injector = FaultInjector(plan)
        with pytest.raises(QueryTimeoutError) as caught:
            injector.on_query("a", 0.0)
        assert caught.value.elapsed == pytest.approx(0.75)
        assert injector.stats.injected_timeouts == 1

    def test_crash_window_dominates_and_hints_recovery(self):
        plan = FaultPlan(
            transients=(TransientFault("a", 0),),
            crashes=(CrashWindow("a", 0.0, 2.0),),
        )
        injector = FaultInjector(plan)
        with pytest.raises(TransientSourceError) as caught:
            injector.on_query("a", 0.5)
        assert caught.value.retry_at == pytest.approx(2.0)
        assert injector.stats.crash_rejections == 1
        # The crashed attempt did not consume a transient slot: the
        # first post-recovery attempt still hits attempt index 0.
        with pytest.raises(TransientSourceError):
            injector.on_query("a", 2.5)
        assert injector.stats.injected_transients == 1

    def test_clean_source_never_faults(self):
        injector = FaultInjector(FaultPlan())
        for _ in range(10):
            injector.on_query("a", 1.0)
        assert not any(injector.stats.summary().values())


class TestLinkPath:
    def test_unfaulted_messages_get_zero_delay(self):
        injector = FaultInjector(FaultPlan())
        assert injector.on_forward("a") == 0.0

    def test_delay_fault_returns_extra_latency(self):
        plan = FaultPlan(link_faults=(LinkFault("a", 1, delay=0.3),))
        injector = FaultInjector(plan)
        assert injector.on_forward("a") == 0.0  # message 0
        assert injector.on_forward("a") == pytest.approx(0.3)  # message 1
        assert injector.stats.delayed_messages == 1

    def test_drops_surface_as_redelivery_delay(self):
        plan = FaultPlan(
            link_faults=(
                LinkFault("a", 0, drops=2, redelivery_delay=0.25),
            )
        )
        injector = FaultInjector(plan)
        assert injector.on_forward("a") == pytest.approx(0.5)
        assert injector.stats.dropped_messages == 2

    def test_message_counters_are_per_source(self):
        plan = FaultPlan(link_faults=(LinkFault("a", 0, delay=0.1),))
        injector = FaultInjector(plan)
        assert injector.on_forward("b") == 0.0
        assert injector.on_forward("a") == pytest.approx(0.1)


def test_describe_mentions_plan():
    injector = FaultInjector(FaultPlan(seed=5))
    assert "seed=5" in injector.describe()
