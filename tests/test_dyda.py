"""The DyDa facade."""

import pytest

from repro.dyda import DyDaError, DyDaSystem
from repro.relational.errors import QueryError
from repro.relational.schema import RelationSchema
from repro.relational.types import AttributeType
from repro.sim.costs import CostModel
from repro.sources.messages import DataUpdate, DropAttribute, RenameRelation
from repro.sources.sqlite_source import SqliteDataSource

ITEM = RelationSchema.of(
    "Item",
    [("SID", AttributeType.INT), "Book", ("Price", AttributeType.FLOAT)],
)
CATALOG = RelationSchema.of("Catalog", ["Title", "Publisher"])

VIEW_SQL = """
CREATE VIEW BookInfo AS
SELECT I.Book, I.Price, C.Publisher
FROM retailer.Item I, library.Catalog C
WHERE I.Book = C.Title
"""

CHEAP_SQL = """
CREATE VIEW Cheap AS
SELECT I.Book FROM retailer.Item I WHERE I.Price < 45
"""


def build(*views: str, **kwargs) -> DyDaSystem:
    system = DyDaSystem(cost_model=CostModel.free(), **kwargs)
    retailer = system.add_source("retailer")
    retailer.create_relation(
        ITEM, [(1, "Databases", 50.0), (2, "Compilers", 40.0)]
    )
    library = system.add_source("library")
    library.create_relation(
        CATALOG, [("Databases", "MIT"), ("Compilers", "AW")]
    )
    for view in views or (VIEW_SQL,):
        system.define_view(view)
    return system


class TestLifecycle:
    def test_views_before_sources_rejected(self):
        system = DyDaSystem()
        with pytest.raises(DyDaError):
            system.run()  # no views at all

    def test_sources_after_start_rejected(self):
        system = build()
        system.run()
        with pytest.raises(DyDaError):
            system.add_source("late")

    def test_views_after_start_rejected(self):
        system = build()
        system.run()
        with pytest.raises(DyDaError):
            system.define_view(CHEAP_SQL)

    def test_unknown_backend_rejected(self):
        system = DyDaSystem()
        with pytest.raises(DyDaError):
            system.add_source("x", backend="oracle8i")

    def test_sqlite_backend(self):
        system = DyDaSystem(cost_model=CostModel.free())
        source = system.add_source("retailer", backend="sqlite")
        assert isinstance(source, SqliteDataSource)


class TestOrderingTypes:
    """An ordering between a string and a number is refused where the
    view first meets its sources' schemas, naming the predicate and both
    types — not a ``TypeError`` from inside the kernel."""

    @pytest.mark.parametrize(
        "condition, message",
        [
            ("I.Book < 45", r"I\.Book < 45 orders STRING against INT"),
            (
                "I.Book >= I.Price",
                r"I\.Book >= I\.Price orders STRING against FLOAT",
            ),
        ],
    )
    def test_mistyped_ordering_is_a_query_error(self, condition, message):
        system = build(
            f"CREATE VIEW Bad AS SELECT I.Book FROM retailer.Item I "
            f"WHERE {condition}"
        )
        with pytest.raises(QueryError, match=message):
            system.commit(
                "retailer", DataUpdate.insert(ITEM, [(3, "Networks", 9.0)])
            )

    def test_int_and_float_still_order(self):
        system = build(
            "CREATE VIEW Cheap AS SELECT I.Book FROM retailer.Item I "
            "WHERE I.Price < 45 AND I.SID > 1.5"
        )
        system.commit(
            "retailer", DataUpdate.insert(ITEM, [(3, "Networks", 9.0)])
        )
        system.run()
        assert sorted(system.extent().rows()) == [
            ("Compilers",), ("Networks",)
        ]


class TestSingleView:
    def test_initial_extent(self):
        system = build()
        assert len(system.extent()) == 2
        assert system.definition().name == "BookInfo"

    def test_commit_and_run(self):
        system = build()
        system.commit(
            "retailer", DataUpdate.insert(ITEM, [(3, "Datalog", 30.0)])
        )
        system.commit(
            "library", DataUpdate.insert(CATALOG, [("Datalog", "PH")])
        )
        system.run()
        assert len(system.extent()) == 3
        assert system.check().consistent

    def test_schedule_and_run(self):
        system = build()
        system.schedule(
            2.0, "retailer", DataUpdate.insert(ITEM, [(3, "Datalog", 30.0)])
        )
        system.schedule(3.0, "retailer", RenameRelation("Item", "Stock"))
        system.run()
        assert system.definition().query.references_relation(
            "retailer", "Stock"
        )
        assert system.check().consistent
        assert system.now >= 3.0

    def test_unknown_source_rejected(self):
        system = build()
        with pytest.raises(DyDaError):
            system.commit("ghost", DataUpdate.insert(ITEM, []))
        with pytest.raises(DyDaError):
            system.schedule(1.0, "ghost", DataUpdate.insert(ITEM, []))

    def test_metrics_and_stats_exposed(self):
        system = build()
        system.commit(
            "retailer", DataUpdate.insert(ITEM, [(3, "Datalog", 30.0)])
        )
        system.run()
        assert system.metrics.maintained_updates == 1
        assert system.stats.iterations >= 1


class TestMultiView:
    def test_two_views_one_stream(self):
        system = build(VIEW_SQL, CHEAP_SQL)
        assert len(system.extent("Cheap")) == 1
        system.commit(
            "retailer", DataUpdate.insert(ITEM, [(3, "Datalog", 30.0)])
        )
        system.commit(
            "library", DataUpdate.insert(CATALOG, [("Datalog", "PH")])
        )
        system.run()
        assert len(system.extent("BookInfo")) == 3
        assert len(system.extent("Cheap")) == 2
        assert system.check("BookInfo").consistent
        assert system.check("Cheap").consistent

    def test_unnamed_extent_ambiguous(self):
        system = build(VIEW_SQL, CHEAP_SQL)
        with pytest.raises(DyDaError):
            system.extent()

    def test_unknown_view_rejected(self):
        system = build()
        with pytest.raises(DyDaError):
            system.extent("Nope")

    def test_sc_flows_to_both(self):
        system = build(VIEW_SQL, CHEAP_SQL)
        system.schedule(1.0, "retailer", DropAttribute("Item", "Price"))
        system.run()
        # Price was pruned from BookInfo; Cheap lost its predicate
        # source attribute, so its relation was evolved out... which
        # would empty it — instead the view keeps Book (selection
        # pruned).
        assert system.check("BookInfo").consistent
        assert system.check("Cheap").consistent
