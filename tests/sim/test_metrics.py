"""Metrics accumulation."""

from collections import Counter
from dataclasses import fields

from repro.sim.metrics import Metrics


def test_charge_accumulates_by_kind():
    metrics = Metrics()
    metrics.charge("query", 1.0)
    metrics.charge("query", 0.5)
    metrics.charge("vs_rewrite", 2.0)
    assert metrics.busy_time["query"] == 1.5
    assert metrics.total_busy_time == 3.5
    assert metrics.maintenance_cost == 3.5


def test_summary_keys():
    metrics = Metrics()
    metrics.charge("query", 1.0)
    metrics.abort_cost = 0.25
    metrics.aborts = 1
    summary = metrics.summary()
    assert summary["maintenance_cost"] == 1.0
    assert summary["abort_cost"] == 0.25
    assert summary["aborts"] == 1
    assert "view_refreshes" in summary
    assert "cycle_merges" in summary


def test_summary_reports_every_scalar_field():
    # The summary is derived from the dataclass, so a counter added
    # later cannot go unreported (failed_commits and view_delta_tuples
    # once did).
    metrics = Metrics(failed_commits=2, view_delta_tuples=7)
    metrics.backoff_time = 0.123456789
    summary = metrics.summary()
    for spec in fields(Metrics):
        if not isinstance(getattr(metrics, spec.name), Counter):
            assert spec.name in summary, spec.name
    assert summary["failed_commits"] == 2
    assert summary["view_delta_tuples"] == 7
    assert summary["backoff_time"] == 0.123457
    for rendering in ("busy_breakdown", "anomalies", "worker_utilization"):
        assert isinstance(summary[rendering], dict)
    assert not {"busy_time", "worker_busy_time"} & set(summary)


def test_fresh_metrics_zero():
    metrics = Metrics()
    assert metrics.maintenance_cost == 0.0
    assert metrics.aborts == 0
    assert metrics.broken_queries == 0


def test_busy_breakdown_rounded_and_sorted():
    metrics = Metrics()
    metrics.charge("vs_rewrite", 2.00004)
    metrics.charge("maintenance_query", 1.5)
    breakdown = metrics.busy_breakdown()
    assert list(breakdown) == ["maintenance_query", "vs_rewrite"]
    assert breakdown["vs_rewrite"] == 2.0
    assert metrics.summary()["busy_breakdown"] == breakdown
