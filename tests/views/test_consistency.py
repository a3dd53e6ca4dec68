"""The convergence oracle."""

from repro.relational.delta import Delta
from repro.views.consistency import check_convergence
from tests.builders import free_cost_model
from tests.conftest import build_bookstore


def test_consistent_after_initial_load():
    _engine, manager = build_bookstore(free_cost_model())
    report = check_convergence(manager)
    assert report.consistent
    assert report.expected_rows == report.actual_rows == 2
    assert "consistent" in report.summary()


def test_detects_missing_rows():
    _engine, manager = build_bookstore(free_cost_model())
    schema = manager.mv.extent.schema
    row = next(iter(manager.mv.extent))
    delta = Delta(schema)
    delta.add(row, -1)
    manager.mv.apply(delta)
    report = check_convergence(manager)
    assert not report.consistent
    assert report.missing
    assert "INCONSISTENT" in report.summary()


def test_detects_unexpected_rows():
    _engine, manager = build_bookstore(free_cost_model())
    schema = manager.mv.extent.schema
    delta = Delta(schema)
    ghost = tuple(
        0.0 if attribute.name == "Price" else "ghost"
        for attribute in schema.attributes
    )
    delta.add(ghost, 1)
    manager.mv.apply(delta)
    report = check_convergence(manager)
    assert not report.consistent
    assert report.unexpected


def test_sample_bounds_reported_rows():
    _engine, manager = build_bookstore(free_cost_model())
    schema = manager.mv.extent.schema
    delta = Delta(schema)
    for index in range(20):
        ghost = tuple(
            float(index) if attribute.name == "Price" else f"g{index}"
            for attribute in schema.attributes
        )
        delta.add(ghost, 1)
    manager.mv.apply(delta)
    report = check_convergence(manager, sample=3)
    assert len(report.unexpected) <= 3
