"""End-to-end reproductions of the paper's worked examples.

* Example 1.a — the duplication anomaly, fixed by compensation;
* Example 1.b — the broken-query anomaly (XML remapping collapses
  Store+Item into StoreItems), fixed by Dyno with the Query (3) rewrite;
* Section 3.5 — the cyclic schema changes SC1/SC2, merged and processed
  as one batch, yielding exactly the Query (5) definition.
"""

import pytest

from repro.core.scheduler import DynoScheduler
from repro.core.strategies import NAIVE, OPTIMISTIC, PESSIMISTIC
from repro.sim.costs import CostModel
from repro.sources.messages import (
    DataUpdate,
    DropAttribute,
    RestructureRelations,
)
from repro.sources.workload import FixedUpdate, Workload
from repro.views.consistency import check_convergence
from tests.conftest import (
    CATALOG_SCHEMA,
    ITEM_SCHEMA,
    STOREITEMS_SCHEMA,
    build_bookstore,
)

NEW_BOOK_CATALOG = DataUpdate.insert(
    CATALOG_SCHEMA,
    [("Data Integration Guide", "Adams", "Engineering", "Princeton", "new")],
)


def new_item() -> DataUpdate:
    return DataUpdate.insert(
        ITEM_SCHEMA, [(1, "Data Integration Guide", "Adams", 35.99)]
    )


def storeitems_restructure() -> RestructureRelations:
    return RestructureRelations(
        dropped=("Store", "Item"),
        new_schema=STOREITEMS_SCHEMA,
        new_rows=(
            ("Amazon", "Databases", "Gray", 50.0),
            ("BN", "Compilers", "Aho", 40.0),
        ),
    )


def schedule(engine, items):
    workload = Workload()
    for at, source, payload in items:
        workload.add(at, source, FixedUpdate(payload))
    engine.schedule_workload(workload)


class TestExample1a:
    """Duplication anomaly: concurrent DU leaks into the probe answer."""

    def test_compensation_prevents_duplicate(self):
        engine, stack = build_bookstore(CostModel.paper_default())
        [manager] = stack.view_managers()
        schedule(
            engine,
            [
                (0.0, "library", NEW_BOOK_CATALOG),
                # commits inside the catalog-DU's probe window
                (0.005, "retailer", new_item()),
            ],
        )
        DynoScheduler(stack, PESSIMISTIC).run()
        report = check_convergence(manager)
        assert report.consistent, report.summary()
        matches = [
            row
            for row in manager.mv.extent
            if "Data Integration Guide" in row
        ]
        assert len(matches) == 1  # not duplicated


class TestExample1b:
    """Broken query anomaly: the XML remapping breaks Query (2)."""

    def test_naive_loses_the_update(self):
        engine, stack = build_bookstore(CostModel.paper_default())
        schedule(
            engine,
            [
                (0.0, "library", NEW_BOOK_CATALOG),
                (0.0, "retailer", storeitems_restructure()),
            ],
        )
        stats = DynoScheduler(stack, NAIVE).run()
        assert stats.skipped_updates >= 1

    @pytest.mark.parametrize("strategy", [PESSIMISTIC, OPTIMISTIC])
    def test_dyno_reorders_and_produces_query_3_shape(self, strategy):
        engine, stack = build_bookstore(CostModel.paper_default())
        [manager] = stack.view_managers()
        schedule(
            engine,
            [
                (0.0, "library", NEW_BOOK_CATALOG),
                (0.0, "retailer", storeitems_restructure()),
            ],
        )
        DynoScheduler(stack, strategy).run()
        query = manager.view.query
        assert query.references_relation("retailer", "StoreItems")
        assert not query.references_relation("retailer", "Store")
        report = check_convergence(manager)
        assert report.consistent, report.summary()


class TestSection35Cycle:
    """SC1 (restructure) + SC2 (drop Review): mutually-invalidating
    rewrites form a dependency cycle; the batch yields Query (5)."""

    def test_cycle_merged_and_query_5_produced(self):
        engine, stack = build_bookstore(CostModel.paper_default())
        [manager] = stack.view_managers()
        restructure = RestructureRelations(
            dropped=("Store", "Item"),
            new_schema=STOREITEMS_SCHEMA,
            new_rows=(
                ("Amazon", "Databases", "Gray", 50.0),
                ("BN", "Compilers", "Aho", 40.0),
                ("Amazon", "Data Integration Guide", "Adams", 35.99),
            ),
        )
        schedule(
            engine,
            [
                (0.0, "library", NEW_BOOK_CATALOG),
                (0.0, "retailer", new_item()),
                (0.02, "retailer", restructure),
                (0.03, "library", DropAttribute("Catalog", "Review")),
            ],
        )
        DynoScheduler(stack, PESSIMISTIC).run()
        query = manager.view.query
        # Query (5): StoreItems ⋈ Catalog ⋈ ReaderDigest
        assert query.references_relation("retailer", "StoreItems")
        assert query.references_relation("library", "Catalog")
        assert query.references_relation("digest", "ReaderDigest")
        join_attr_names = {
            frozenset(ref.name for ref in join.references())
            for join in query.joins
        }
        assert frozenset({"Book", "Title"}) in join_attr_names
        assert frozenset({"Title", "Article"}) in join_attr_names
        assert engine.metrics.cycle_merges >= 1
        report = check_convergence(manager)
        assert report.consistent, report.summary()
        # the Review column is now sourced from ReaderDigest.Comments
        rows = sorted(manager.mv.extent.rows())
        assert any("timely" in row for row in rows)

    def test_final_extent_matches_paper_data(self):
        engine, stack = build_bookstore(CostModel.paper_default())
        [manager] = stack.view_managers()
        restructure = RestructureRelations(
            dropped=("Store", "Item"),
            new_schema=STOREITEMS_SCHEMA,
            new_rows=(
                ("Amazon", "Databases", "Gray", 50.0),
                ("Amazon", "Data Integration Guide", "Adams", 35.99),
            ),
        )
        schedule(
            engine,
            [
                (0.0, "library", NEW_BOOK_CATALOG),
                (0.0, "retailer", restructure),
                (0.01, "library", DropAttribute("Catalog", "Review")),
            ],
        )
        DynoScheduler(stack, PESSIMISTIC).run()
        rows = set(manager.mv.extent.rows())
        assert (
            "Amazon",
            "Data Integration Guide",
            "Adams",
            35.99,
            "Princeton",
            "Engineering",
            "timely",
        ) in rows
