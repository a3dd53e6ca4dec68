"""View adaptation: Equation 6 and the effectful recompute."""

import pytest

from repro.maintenance.va import adapt_view
from repro.relational.executor import execute
from repro.relational.predicate import attr
from repro.relational.query import JoinCondition, RelationRef, SPJQuery
from repro.relational.schema import RelationSchema
from repro.relational.table import Table
from repro.sim.costs import CostModel
from repro.sources.messages import DataUpdate, DropAttribute
from repro.views.manager import _UMQView
from repro.views.umq import MaintenanceUnit
from tests.builders import free_cost_model
from tests.conftest import build_bookstore
from tests.property.test_equation6 import telescoping_delta

R = RelationSchema.of("R", ["k", "a"])
T = RelationSchema.of("T", ["k", "x"])


def two_way() -> SPJQuery:
    return SPJQuery(
        relations=(
            RelationRef("s1", "R", "R"),
            RelationRef("s2", "T", "T"),
        ),
        projection=(attr("R", "a"), attr("T", "x")),
        joins=(JoinCondition(attr("R", "k"), attr("T", "k")),),
    )


class TestTelescopingDelta:
    """Equation 6 equals the recompute diff — exhaustively by cases."""

    def check(self, old_tables, new_tables, query=None):
        query = query or two_way()
        delta = telescoping_delta(query, old_tables, new_tables)
        old_extent = execute(query, old_tables)
        new_extent = execute(query, new_tables)
        expected = new_extent.as_delta()
        expected.merge(old_extent.as_delta().negated())
        if delta is None:
            assert expected.is_empty()
        else:
            assert delta == expected

    def test_no_change_returns_none(self):
        tables = {"R": Table(R, [("1", "a")]), "T": Table(T, [("1", "x")])}
        assert telescoping_delta(two_way(), tables, tables) is None

    def test_single_relation_insert(self):
        old = {"R": Table(R, [("1", "a")]), "T": Table(T, [("1", "x")])}
        new = {
            "R": Table(R, [("1", "a"), ("2", "b")]),
            "T": old["T"],
        }
        self.check(old, new)

    def test_single_relation_delete(self):
        old = {
            "R": Table(R, [("1", "a"), ("2", "b")]),
            "T": Table(T, [("1", "x"), ("2", "y")]),
        }
        new = {"R": Table(R, [("1", "a")]), "T": old["T"]}
        self.check(old, new)

    def test_both_relations_change(self):
        old = {"R": Table(R, [("1", "a")]), "T": Table(T, [("1", "x")])}
        new = {
            "R": Table(R, [("2", "b")]),
            "T": Table(T, [("2", "y"), ("1", "x")]),
        }
        self.check(old, new)

    def test_change_with_duplicates(self):
        old = {
            "R": Table(R, [("1", "a"), ("1", "a")]),
            "T": Table(T, [("1", "x")]),
        }
        new = {
            "R": Table(R, [("1", "a")]),
            "T": Table(T, [("1", "x"), ("1", "x")]),
        }
        self.check(old, new)

    def test_disjoint_replacement(self):
        old = {"R": Table(R, [("1", "a")]), "T": Table(T, [("1", "x")])}
        new = {"R": Table(R, [("9", "z")]), "T": Table(T, [("9", "w")])}
        self.check(old, new)


class TestAdaptView:
    def test_rebuilds_extent_for_rewritten_definition(self):
        engine, manager = build_bookstore(free_cost_model())
        # Drop Catalog.Review at the source, rewrite the view, adapt.
        change = DropAttribute("Catalog", "Review")
        message = engine.source("library").commit(change, at=0.0)
        unit = manager.umq.head()
        result = manager.synchronizer.synchronize(manager.view, message)
        extent = engine.run_process(
            adapt_view(
                result.definition,
                unit,
                _UMQView(manager, unit, []),
                engine.cost_model,
            )
        )
        # Adapted extent must match the NEW definition's recompute:
        manager.view = result.definition
        assert extent == manager.recompute_reference()

    def test_rounds_multiply_scan_cost(self):
        engine, manager = build_bookstore(
            CostModel(
                query_base=1.0,
                query_per_scanned_tuple=0.0,
                query_per_result_tuple=0.0,
                va_base=0.0,
                va_per_tuple=0.0,
            )
        )
        change = DropAttribute("Catalog", "Review")
        message = engine.source("library").commit(change, at=0.0)
        unit = manager.umq.head()
        result = manager.synchronizer.synchronize(manager.view, message)
        engine.run_process(
            adapt_view(
                result.definition,
                unit,
                _UMQView(manager, unit, []),
                engine.cost_model,
                rounds=3,
            )
        )
        # 3 rounds x 4 relations (Store, Item, Catalog, ReaderDigest)
        assert engine.clock.now == pytest.approx(12.0)

    def test_adaptation_folds_in_batch_data_updates(self):
        engine, manager = build_bookstore(free_cost_model())
        from tests.conftest import ITEM_SCHEMA

        source = engine.source("retailer")
        du_message = source.commit(
            DataUpdate.insert(ITEM_SCHEMA, [(1, "Databases", "G2", 1.0)]),
            at=0.0,
        )
        sc_message = engine.source("library").commit(
            DropAttribute("Catalog", "Review"), at=0.0
        )
        # Merge both into one batch unit (as correction would).
        batch = MaintenanceUnit(
            [manager.umq.messages()[0], manager.umq.messages()[1]]
        )
        manager.umq.replace_order([batch])
        result = manager.synchronizer.synchronize(manager.view, sc_message)
        extent = engine.run_process(
            adapt_view(
                result.definition,
                batch,
                _UMQView(manager, batch, []),
                engine.cost_model,
            )
        )
        manager.view = result.definition
        assert extent == manager.recompute_reference()
        # the batched DU's new join row is present
        assert any("G2" in str(row) for row in extent.rows())
