"""The VM probe sweep: correct view deltas under concurrency."""

import pytest

from repro.maintenance.vm import maintain_data_update
from repro.relational.delta import Delta
from repro.sim.costs import CostModel
from repro.sim.engine import SimEngine
from repro.sources.errors import BrokenQueryError
from repro.sources.messages import DataUpdate, DropAttribute
from repro.views.manager import _UMQView
from repro.views.umq import MaintenanceUnit
from tests.builders import free_cost_model
from tests.conftest import (
    CATALOG_SCHEMA,
    ITEM_SCHEMA,
    build_bookstore,
)


def run_du(engine, stack, payload, source_name, extra_events=()):
    """Commit a DU, enqueue it, and run its maintenance process."""
    for at, action in extra_events:
        engine.schedule(at, action)
    message = engine.source(source_name).commit(payload, at=engine.clock.now)
    unit = stack.umq.head()
    [manager] = stack.view_managers()
    process = maintain_data_update(
        manager.view, unit, _UMQView(stack, manager.schema_history, unit, [])
    )
    return engine.run_process(process)


class TestBasicSweep:
    def test_insert_produces_view_tuple(self):
        engine, stack = build_bookstore(free_cost_model())
        payload = DataUpdate.insert(
            CATALOG_SCHEMA,
            [("Data Integration Guide", "Adams", "Eng", "P", "new")],
        )
        # matching Item row exists? No -> empty delta
        delta = run_du(engine, stack, payload, "library")
        assert delta is None or delta.is_empty()

    def test_insert_matching_join(self):
        engine, stack = build_bookstore(free_cost_model())
        payload = DataUpdate.insert(
            ITEM_SCHEMA, [(1, "Databases", "Gray2", 12.0)]
        )
        delta = run_du(engine, stack, payload, "retailer")
        assert delta is not None
        rows = {row for row, count in delta.items() if count > 0}
        assert ("Amazon", "Databases", "Gray2", 12.0, "MIT", "CS", "good") in rows

    def test_delete_produces_negative_delta(self):
        engine, stack = build_bookstore(free_cost_model())
        payload = DataUpdate.delete(
            ITEM_SCHEMA, [(1, "Databases", "Gray", 50.0)]
        )
        delta = run_du(engine, stack, payload, "retailer")
        assert delta is not None
        negatives = [count for _row, count in delta.items() if count < 0]
        assert negatives == [-1]

    def test_update_irrelevant_to_view(self):
        engine, stack = build_bookstore(free_cost_model())
        # ReaderDigest is not part of the initial view definition.
        reader = engine.source("digest").schema_of("ReaderDigest")
        payload = DataUpdate.insert(reader, [("X", "Y")])
        delta = run_du(engine, stack, payload, "digest")
        assert delta is None

    def test_empty_delta_short_circuits(self):
        engine, stack = build_bookstore(free_cost_model())
        payload = DataUpdate("Item", Delta(ITEM_SCHEMA))
        delta = run_du(engine, stack, payload, "retailer")
        assert delta is None


class TestConcurrencyCompensation:
    def test_duplication_anomaly_compensated(self):
        """Example 1.a: a concurrent insert leaks into the probe answer
        and must be compensated so the view is not refreshed twice."""
        engine, stack = build_bookstore(
            CostModel(query_base=1.0)
        )
        # The catalog insert's probe to Item will be answered at t>=1,
        # after the concurrent Item insert at t=0.5 committed.
        catalog_du = DataUpdate.insert(
            CATALOG_SCHEMA,
            [("Data Integration Guide", "Adams", "Eng", "P", "new")],
        )
        item_du = DataUpdate.insert(
            ITEM_SCHEMA, [(1, "Data Integration Guide", "Adams", 35.99)]
        )
        extra = [
            (
                0.5,
                lambda: engine.source("retailer").commit(item_du, at=0.5),
            )
        ]
        delta = run_du(engine, stack, catalog_du, "library", extra)
        # The leaked join result must have been compensated away: the
        # item insert is queued behind and will produce the tuple itself.
        assert delta is None or delta.is_empty()

    def test_broken_query_propagates(self):
        engine, stack = build_bookstore(CostModel(query_base=1.0))
        [manager] = stack.view_managers()
        catalog_du = DataUpdate.insert(
            CATALOG_SCHEMA,
            [("Data Integration Guide", "Adams", "Eng", "P", "new")],
        )
        engine.schedule(
            0.5,
            lambda: engine.source("retailer").commit(
                DropAttribute("Item", "Price"), at=0.5
            ),
        )
        message = engine.source("library").commit(catalog_du, at=0.0)
        unit = stack.umq.head()
        process = maintain_data_update(
            manager.view,
            unit,
            _UMQView(stack, manager.schema_history, unit, []),
        )
        with pytest.raises(BrokenQueryError):
            engine.run_process(process)
