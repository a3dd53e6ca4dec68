"""Autonomous data sources: commits, queries, broken-query detection."""

import pytest

from repro.relational.predicate import InPredicate, attr
from repro.relational.query import RelationRef, SPJQuery
from repro.relational.schema import Attribute, RelationSchema
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

ITEM = RelationSchema.of("Item", ["SID", "Book", "Author"])


@pytest.fixture
def source() -> DataSource:
    source = DataSource("retailer")
    source.create_relation(ITEM, [("1", "DB", "Gray"), ("2", "CC", "Aho")])
    return source


def item_query(projection=("SID", "Book"), relation="Item") -> SPJQuery:
    return SPJQuery(
        relations=(RelationRef("retailer", relation, "I"),),
        projection=tuple(attr("I", name) for name in projection),
    )


class TestCommits:
    def test_data_update_applies(self, source):
        update = DataUpdate.insert(ITEM, [("3", "X", "Y")])
        message = source.commit(update, at=1.5)
        assert ("3", "X", "Y") in source.catalog.table("Item")
        assert message.seqno == 1
        assert message.committed_at == 1.5

    def test_seqno_increments(self, source):
        first = source.commit(DataUpdate.insert(ITEM, []))
        second = source.commit(DataUpdate.insert(ITEM, []))
        assert (first.seqno, second.seqno) == (1, 2)

    def test_commit_logged(self, source):
        source.commit(DataUpdate.insert(ITEM, []))
        assert len(source.log) == 1

    def test_subscribers_notified_after_apply(self, source):
        seen = []

        def subscriber(message):
            # the change is already applied when the wrapper hears of it
            seen.append(source.has_relation("Item2"))

        source.subscribe(subscriber)
        source.commit(RenameRelation("Item", "Item2"))
        assert seen == [True]

    def test_rename_relation(self, source):
        source.commit(RenameRelation("Item", "Books"))
        assert source.has_relation("Books")
        assert not source.has_relation("Item")

    def test_rename_attribute(self, source):
        source.commit(RenameAttribute("Item", "Book", "Title"))
        assert "Title" in source.schema_of("Item")

    def test_drop_attribute(self, source):
        source.commit(DropAttribute("Item", "Author"))
        assert "Author" not in source.schema_of("Item")
        assert ("1", "DB") in source.catalog.table("Item")

    def test_add_attribute(self, source):
        source.commit(AddAttribute("Item", Attribute("Year"), "2004"))
        assert ("1", "DB", "Gray", "2004") in source.catalog.table("Item")

    def test_drop_relation_snapshots_extent(self, source):
        change = DropRelation("Item")
        source.commit(change)
        assert not source.has_relation("Item")
        assert change.dropped_extent is not None
        assert ("1", "DB", "Gray") in change.dropped_extent

    def test_create_relation(self, source):
        source.commit(
            CreateRelation(RelationSchema.of("New", ["a"]), rows=(("x",),))
        )
        assert ("x",) in source.catalog.table("New")

    def test_restructure(self, source):
        new_schema = RelationSchema.of("Flat", ["SID", "Book"])
        change = RestructureRelations(
            dropped=("Item",),
            new_schema=new_schema,
            new_rows=(("1", "DB"),),
        )
        source.commit(change)
        assert source.has_relation("Flat")
        assert not source.has_relation("Item")
        assert "Item" in change.dropped_extents

    def test_bad_update_wrapped(self, source):
        with pytest.raises(UpdateApplicationError):
            source.commit(RenameRelation("Nope", "X"))

    def test_unknown_update_type_rejected(self, source):
        class Weird:
            def describe(self):
                return "weird"

        with pytest.raises(UpdateApplicationError):
            source.commit(Weird())


class TestQueries:
    def test_query_current_state(self, source):
        result = source.execute(item_query())
        assert len(result) == 2

    def test_query_sees_concurrent_commits(self, source):
        source.commit(DataUpdate.insert(ITEM, [("3", "X", "Y")]))
        result = source.execute(item_query())
        assert len(result) == 3  # the leak that compensation must undo

    def test_missing_relation_breaks(self, source):
        source.commit(RenameRelation("Item", "Books"))
        with pytest.raises(BrokenQueryError) as excinfo:
            source.execute(item_query())
        assert excinfo.value.source == "retailer"

    def test_missing_attribute_breaks(self, source):
        source.commit(DropAttribute("Item", "Book"))
        with pytest.raises(BrokenQueryError):
            source.execute(item_query())

    def test_unreferenced_attribute_change_does_not_break(self, source):
        # Definition 2's note: an SC touching attributes the query does
        # not include must not break the query.
        source.commit(DropAttribute("Item", "Author"))
        result = source.execute(item_query(projection=("SID", "Book")))
        assert len(result) == 2

    def test_wrong_source_relation_breaks(self, source):
        query = SPJQuery(
            relations=(RelationRef("library", "Catalog", "C"),),
            projection=(attr("C", "Title"),),
        )
        with pytest.raises(BrokenQueryError):
            source.execute(query)

    def test_in_probe(self, source):
        query = SPJQuery(
            relations=(RelationRef("retailer", "Item", "I"),),
            projection=(attr("I", "Book"),),
            selection=InPredicate(attr("I", "SID"), frozenset({"1"})),
        )
        assert source.execute(query).rows() == [("DB",)]


class TestIntrospection:
    def test_total_rows(self, source):
        names = source.catalog.relation_names
        assert sum(source.row_count(name) for name in names) == 2

    def test_repr(self, source):
        assert "Item" in repr(source)
