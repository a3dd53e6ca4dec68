"""Multi-view maintenance over one shared UMQ."""

import pytest

from repro.core.scheduler import DynoScheduler
from repro.core.strategies import OPTIMISTIC, PESSIMISTIC
from repro.relational.executor import execute
from repro.relational.predicate import Comparison, attr
from repro.relational.query import JoinCondition, RelationRef, SPJQuery
from repro.sim.costs import CostModel
from repro.sim.engine import SimEngine
from repro.sources.messages import (
    DataUpdate,
    DropAttribute,
    RenameRelation,
)
from repro.sources.source import DataSource
from repro.sources.workload import FixedUpdate, Workload
from repro.views.definition import ViewDefinition
from repro.views.multi import MultiViewManager
from tests.builders import free_cost_model
from tests.conftest import (
    CATALOG_SCHEMA,
    ITEM_SCHEMA,
    STORE_SCHEMA,
    bookinfo_query,
    bookstore_mkb,
)


def cheap_books_query() -> SPJQuery:
    """A second view over the same sources: cheap books only."""
    return SPJQuery(
        relations=(
            RelationRef("retailer", "Item", "I"),
            RelationRef("library", "Catalog", "C"),
        ),
        projection=(attr("I", "Book"), attr("I", "Price"), attr("C", "Publisher")),
        joins=(JoinCondition(attr("I", "Book"), attr("C", "Title")),),
        selection=Comparison(attr("I", "Price"), "<", 45.0),
    )


def build_multi(cost=None):
    engine = SimEngine(cost or free_cost_model())
    retailer = engine.add_source(DataSource("retailer"))
    library = engine.add_source(DataSource("library"))
    digest = engine.add_source(DataSource("digest"))
    retailer.create_relation(STORE_SCHEMA, [(1, "Amazon"), (2, "BN")])
    retailer.create_relation(
        ITEM_SCHEMA,
        [(1, "Databases", "Gray", 50.0), (2, "Compilers", "Aho", 40.0)],
    )
    library.create_relation(
        CATALOG_SCHEMA,
        [
            ("Databases", "Gray", "CS", "MIT", "good"),
            ("Compilers", "Aho", "CS", "AW", "classic"),
        ],
    )
    from tests.conftest import READER_SCHEMA

    digest.create_relation(READER_SCHEMA, [("Databases", "must read")])
    multi = MultiViewManager(
        engine,
        [
            ViewDefinition("BookInfo", bookinfo_query()),
            ViewDefinition("CheapBooks", cheap_books_query()),
        ],
        bookstore_mkb(),
    )
    return engine, multi


def expected_extent(engine, manager):
    tables = {}
    for ref in manager.view.query.relations:
        tables[ref.alias] = engine.sources[ref.source].catalog.table(
            ref.relation
        )
    return execute(manager.view.query, tables)


def assert_all_consistent(engine, multi):
    for manager in multi.managers:
        assert manager.mv.extent == expected_extent(engine, manager), (
            f"view {manager.view.name} inconsistent"
        )


class TestConstruction:
    def test_needs_views(self):
        engine = SimEngine(free_cost_model())
        with pytest.raises(ValueError):
            MultiViewManager(engine, [])

    def test_duplicate_names_rejected(self):
        engine = SimEngine(free_cost_model())
        engine.add_source(DataSource("retailer")).create_relation(
            ITEM_SCHEMA
        )
        view = ViewDefinition(
            "V",
            SPJQuery(
                relations=(RelationRef("retailer", "Item", "I"),),
                projection=(attr("I", "Book"),),
            ),
        )
        with pytest.raises(ValueError):
            MultiViewManager(engine, [view, view])

    def test_initial_load_both_views(self):
        engine, multi = build_multi()
        assert len(multi.manager_for("BookInfo").mv.extent) == 2
        assert len(multi.manager_for("CheapBooks").mv.extent) == 1

    def test_single_shared_umq(self):
        engine, multi = build_multi()
        engine.source("retailer").commit(
            DataUpdate.insert(ITEM_SCHEMA, [(1, "X", "Y", 1.0)]), at=0.0
        )
        assert len(multi.umq) == 1  # one message, not one per view

    def test_maintenance_queries_cover_all_views(self):
        _engine, multi = build_multi()
        assert len(multi.maintenance_queries) == 2

    def test_manager_for_unknown(self):
        _engine, multi = build_multi()
        with pytest.raises(KeyError):
            multi.manager_for("Nope")


class TestMaintenance:
    def test_du_refreshes_both_views(self):
        engine, multi = build_multi()
        workload = Workload()
        workload.add(
            0.0,
            "retailer",
            FixedUpdate(
                DataUpdate.insert(
                    ITEM_SCHEMA, [(1, "Databases", "Cheap", 10.0)]
                )
            ),
        )
        engine.schedule_workload(workload)
        DynoScheduler(multi, PESSIMISTIC).run()
        assert_all_consistent(engine, multi)
        # the cheap insert shows up in CheapBooks too
        cheap = multi.manager_for("CheapBooks").mv.extent
        assert any(10.0 in row for row in cheap.rows())
        assert engine.metrics.maintained_updates == 1  # counted once

    def test_sc_rewrites_only_affected_views(self):
        engine, multi = build_multi()
        workload = Workload()
        # Store is only in BookInfo; CheapBooks must stay untouched.
        workload.add(
            0.0,
            "retailer",
            FixedUpdate(RenameRelation("Store", "Shops")),
        )
        engine.schedule_workload(workload)
        DynoScheduler(multi, PESSIMISTIC).run()
        assert multi.manager_for("BookInfo").view.version == 2
        assert multi.manager_for("CheapBooks").view.version == 1
        assert_all_consistent(engine, multi)

    def test_sc_affecting_both_views(self):
        engine, multi = build_multi()
        workload = Workload()
        workload.add(
            0.0,
            "retailer",
            FixedUpdate(RenameRelation("Item", "Item2")),
        )
        engine.schedule_workload(workload)
        DynoScheduler(multi, PESSIMISTIC).run()
        assert multi.manager_for("BookInfo").view.version == 2
        assert multi.manager_for("CheapBooks").view.version == 2
        assert_all_consistent(engine, multi)

    def test_mixed_storm_converges(self):
        engine, multi = build_multi(CostModel.paper_default())
        workload = Workload()
        workload.add(
            0.0,
            "library",
            FixedUpdate(
                DataUpdate.insert(
                    CATALOG_SCHEMA,
                    [("NewBook", "A", "B", "C", "fine")],
                )
            ),
        )
        workload.add(
            0.0, "retailer", FixedUpdate(RenameRelation("Item", "Item2"))
        )
        workload.add(
            5.0, "library", FixedUpdate(DropAttribute("Catalog", "Review"))
        )
        engine.schedule_workload(workload)
        DynoScheduler(multi, PESSIMISTIC).run()
        assert_all_consistent(engine, multi)

    def test_abort_leaves_every_view_untouched(self):
        """A broken query during the SECOND view's compute phase must
        not have installed the first view's outcome."""
        engine, multi = build_multi(CostModel(query_base=1.0))
        workload = Workload()
        workload.add(
            0.0, "library", FixedUpdate(DropAttribute("Catalog", "Review"))
        )
        # breaks some scan mid-flight
        workload.add(
            4.5, "retailer", FixedUpdate(RenameRelation("Item", "Item2"))
        )
        engine.schedule_workload(workload)
        DynoScheduler(multi, OPTIMISTIC).run()
        # regardless of when the abort hit, final state is consistent
        assert_all_consistent(engine, multi)
        assert engine.metrics.maintained_updates == 2

    def test_du_footprint_unions_views(self):
        """A DU on Store (only in BookInfo) still conflicts with a
        queued SC on Catalog because BookInfo probes Catalog."""
        from tests.detection_oracle import detect

        engine, multi = build_multi()
        engine.source("retailer").commit(
            DataUpdate.insert(STORE_SCHEMA, [(3, "Foyles")]), at=0.0
        )
        engine.source("library").commit(
            DropAttribute("Catalog", "Publisher"), at=0.0
        )
        result = detect(multi.umq.messages(), multi.maintenance_queries)
        assert result.unsafe
