"""SQLite-backed sources: same contract, real SQL engine."""

import sqlite3

import pytest

from repro.core.scheduler import DynoScheduler
from repro.core.strategies import PESSIMISTIC
from repro.relational.predicate import InPredicate, attr
from repro.relational.query import JoinCondition, RelationRef, SPJQuery
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.types import AttributeType
from repro.sim.costs import CostModel
from repro.sim.engine import SimEngine
from repro.sources.errors import BrokenQueryError, UpdateApplicationError
from repro.sources.messages import (
    AddAttribute,
    CreateRelation,
    DataUpdate,
    DropAttribute,
    DropRelation,
    RenameAttribute,
    RenameRelation,
    RestructureRelations,
)
from repro.sources.source import DataSource
from repro.sources.sqlite_source import SqliteDataSource
from repro.views.consistency import check_convergence
from repro.views.definition import ViewDefinition
from repro.views.multi import MultiViewManager

ITEM = RelationSchema.of(
    "Item",
    [
        ("SID", AttributeType.INT),
        "Book",
        ("Price", AttributeType.FLOAT),
        ("InStock", AttributeType.BOOL),
    ],
)


@pytest.fixture
def source() -> SqliteDataSource:
    source = SqliteDataSource("retailer")
    source.create_relation(
        ITEM,
        [(1, "Databases", 50.0, True), (2, "Compilers", 40.0, False)],
    )
    return source


class TestStorage:
    def test_create_and_materialize(self, source):
        table = source.catalog.table("Item")
        assert len(table) == 2
        assert (1, "Databases", 50.0, True) in table

    def test_boolean_roundtrip(self, source):
        table = source.catalog.table("Item")
        row = next(r for r in table if r[0] == 2)
        assert row[3] is False  # 0/1 converted back to bool

    def test_insert_and_delete(self, source):
        source.commit(DataUpdate.insert(ITEM, [(3, "Datalog", 30.0, True)]))
        source.commit(
            DataUpdate.delete(ITEM, [(1, "Databases", 50.0, True)])
        )
        names = {row[1] for row in source.catalog.table("Item")}
        assert names == {"Compilers", "Datalog"}

    def test_delete_absent_rejected(self, source):
        with pytest.raises(UpdateApplicationError):
            source.commit(
                DataUpdate.delete(ITEM, [(9, "Ghost", 1.0, True)])
            )

    def test_bag_semantics_duplicates(self, source):
        source.commit(
            DataUpdate.insert(ITEM, [(1, "Databases", 50.0, True)])
        )
        assert source.catalog.table("Item").count(
            (1, "Databases", 50.0, True)
        ) == 2

    def test_total_rows(self, source):
        names = source.catalog.relation_names
        assert sum(source.row_count(name) for name in names) == 2


class TestSchemaChanges:
    def test_rename_relation(self, source):
        source.commit(RenameRelation("Item", "Stock"))
        assert source.has_relation("Stock")
        assert not source.has_relation("Item")
        assert len(source.catalog.table("Stock")) == 2

    def test_rename_attribute(self, source):
        source.commit(RenameAttribute("Item", "Book", "Title"))
        assert "Title" in source.schema_of("Item")
        table = source.catalog.table("Item")
        assert any("Databases" in row for row in table)

    def test_drop_attribute(self, source):
        source.commit(DropAttribute("Item", "InStock"))
        assert source.schema_of("Item").arity == 3
        assert (1, "Databases", 50.0) in source.catalog.table("Item")

    def test_add_attribute_with_default(self, source):
        source.commit(
            AddAttribute("Item", Attribute("Year"), "2004")
        )
        assert (1, "Databases", 50.0, True, "2004") in source.catalog.table(
            "Item"
        )

    def test_drop_relation_snapshots(self, source):
        change = DropRelation("Item")
        source.commit(change)
        assert not source.has_relation("Item")
        assert change.dropped_extent is not None
        assert len(change.dropped_extent) == 2

    def test_create_relation_update(self, source):
        source.commit(
            CreateRelation(
                RelationSchema.of("New", ["a"]), rows=(("x",),)
            )
        )
        assert ("x",) in source.catalog.table("New")

    def test_restructure(self, source):
        flat = RelationSchema.of("Flat", ["Book"])
        change = RestructureRelations(
            dropped=("Item",), new_schema=flat, new_rows=(("Databases",),)
        )
        source.commit(change)
        assert source.has_relation("Flat")
        assert "Item" in change.dropped_extents


class TestFloatAffinity:
    """A FLOAT column reads back as ``float`` with no conversion of
    ours: a REAL column's affinity stores every number as a float.
    ``type(...) is float`` is asserted, since ``5 == 5.0``."""

    def test_stdlib_real_affinity(self):
        db = sqlite3.connect(":memory:")
        db.execute("CREATE TABLE t (a INTEGER, b REAL)")
        db.executemany("INSERT INTO t VALUES (?, ?)", [(1, 2), (2, None)])
        db.execute("ALTER TABLE t ADD COLUMN c REAL DEFAULT 3")
        rows = db.execute("SELECT a, b, c FROM t ORDER BY a").fetchall()
        assert rows == [(1, 2.0, 3.0), (2, None, 3.0)]
        assert type(rows[0][1]) is float
        assert type(rows[0][2]) is float
        assert type(rows[1][2]) is float

    @staticmethod
    def _twins():
        memory, sqlite = DataSource("retailer"), SqliteDataSource("retailer")
        for twin in (memory, sqlite):
            twin.create_relation(ITEM, [(1, "Databases", 50, True)])
            twin.commit(DataUpdate.insert(ITEM, [(2, "Compilers", 7, False)]))
            twin.commit(
                DataUpdate.insert(ITEM, [(3, "Datalog", None, True)])
            )
            twin.commit(
                AddAttribute(
                    "Item", Attribute("Weight", AttributeType.FLOAT), 3
                )
            )
        return memory, sqlite

    def test_source_answers_match_the_memory_backend(self):
        memory, sqlite = self._twins()
        query = SPJQuery(
            relations=(RelationRef("retailer", "Item", "I"),),
            projection=(
                attr("I", "SID"),
                attr("I", "Price"),
                attr("I", "Weight"),
            ),
        )
        expected = sorted(memory.execute(query).rows())
        answered = sorted(sqlite.execute(query).rows())
        assert answered == expected == [
            (1, 50.0, 3.0),
            (2, 7.0, 3.0),
            (3, None, 3.0),
        ]
        for rows in (expected, answered):
            assert [type(price) for _sid, price, _w in rows] == [
                float,
                float,
                type(None),
            ]
            assert {type(weight) for _sid, _p, weight in rows} == {float}


class TestQueries:
    def test_sql_execution(self, source):
        query = SPJQuery(
            relations=(RelationRef("retailer", "Item", "I"),),
            projection=(attr("I", "Book"), attr("I", "Price")),
            selection=InPredicate(attr("I", "SID"), frozenset({1})),
        )
        result = source.execute(query)
        assert result.rows() == [("Databases", 50.0)]

    def test_join_inside_source(self, source):
        source.create_relation(
            RelationSchema.of("Reviews", ["Book", "Stars"]),
            [("Databases", "5"), ("Compilers", "4")],
        )
        query = SPJQuery(
            relations=(
                RelationRef("retailer", "Item", "I"),
                RelationRef("retailer", "Reviews", "R"),
            ),
            projection=(attr("I", "Book"), attr("R", "Stars")),
            joins=(JoinCondition(attr("I", "Book"), attr("R", "Book")),),
        )
        result = source.execute(query)
        assert sorted(result.rows()) == [
            ("Compilers", "4"),
            ("Databases", "5"),
        ]

    def test_missing_relation_breaks(self, source):
        source.commit(RenameRelation("Item", "Stock"))
        query = SPJQuery(
            relations=(RelationRef("retailer", "Item", "I"),),
            projection=(attr("I", "Book"),),
        )
        with pytest.raises(BrokenQueryError):
            source.execute(query)

    def test_missing_attribute_breaks(self, source):
        source.commit(DropAttribute("Item", "Price"))
        query = SPJQuery(
            relations=(RelationRef("retailer", "Item", "I"),),
            projection=(attr("I", "Price"),),
        )
        with pytest.raises(BrokenQueryError):
            source.execute(query)

    def test_unreferenced_change_does_not_break(self, source):
        source.commit(DropAttribute("Item", "InStock"))
        query = SPJQuery(
            relations=(RelationRef("retailer", "Item", "I"),),
            projection=(attr("I", "Book"),),
        )
        assert len(source.execute(query)) == 2

    def test_wrong_source_breaks(self, source):
        query = SPJQuery(
            relations=(RelationRef("library", "Catalog", "C"),),
            projection=(attr("C", "Title"),),
        )
        with pytest.raises(BrokenQueryError):
            source.execute(query)


class TestEndToEndWithViewManager:
    """The whole Dyno stack on SQLite sources, unchanged."""

    def build(self):
        engine = SimEngine(CostModel.paper_default())
        retailer = SqliteDataSource("retailer")
        retailer.create_relation(
            ITEM,
            [(1, "Databases", 50.0, True), (2, "Compilers", 40.0, True)],
        )
        engine.add_source(retailer)
        library = SqliteDataSource("library")
        catalog = RelationSchema.of("Catalog", ["Title", "Publisher"])
        library.create_relation(
            catalog, [("Databases", "MIT"), ("Compilers", "AW")]
        )
        engine.add_source(library)
        query = SPJQuery(
            relations=(
                RelationRef("retailer", "Item", "I"),
                RelationRef("library", "Catalog", "C"),
            ),
            projection=(
                attr("I", "Book"),
                attr("I", "Price"),
                attr("C", "Publisher"),
            ),
            joins=(JoinCondition(attr("I", "Book"), attr("C", "Title")),),
        )
        stack = MultiViewManager(engine, [ViewDefinition("V", query)])
        return engine, stack, catalog

    def test_du_and_sc_maintenance_converges(self):
        from repro.sources.workload import FixedUpdate, Workload

        engine, stack, catalog = self.build()
        [manager] = stack.view_managers()
        workload = Workload()
        workload.add(
            0.0,
            "retailer",
            FixedUpdate(
                DataUpdate.insert(ITEM, [(3, "Datalog", 30.0, True)])
            ),
        )
        workload.add(
            0.0,
            "library",
            FixedUpdate(
                DataUpdate.insert(catalog, [("Datalog", "PH")])
            ),
        )
        workload.add(
            1.0, "retailer", FixedUpdate(RenameRelation("Item", "Stock"))
        )
        engine.schedule_workload(workload)
        DynoScheduler(stack, PESSIMISTIC).run()
        report = check_convergence(manager)
        assert report.consistent, report.summary()
        assert manager.view.query.references_relation("retailer", "Stock")
        assert len(manager.mv.extent) == 3
