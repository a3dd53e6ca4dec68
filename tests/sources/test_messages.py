"""Update messages: conflict tests and envelopes.  A schema change's
conflict with a query (Definition 3) is the one test detection runs:
:meth:`Footprint.conflicted_by` over the query's footprint."""

from repro.core.dependencies import NameResolver, footprint_of_query
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.types import AttributeType
from repro.sources.messages import (
    AddAttribute,
    CreateRelation,
    DataUpdate,
    DropAttribute,
    DropRelation,
    RenameAttribute,
    RenameRelation,
    RestructureRelations,
    UpdateMessage,
)
from tests.conftest import bookinfo_query

QUERY = bookinfo_query()
FOOTPRINT = footprint_of_query(QUERY)
ITEM = RelationSchema.of("Item", ["SID", "Book"])


def envelope(source: str, payload) -> UpdateMessage:
    return UpdateMessage(source, 1, 0.0, payload)


def conflicts(message: UpdateMessage) -> bool:
    return FOOTPRINT.conflicted_by(
        message.source, message.payload, NameResolver()
    )


class TestDataUpdate:
    def test_insert_constructor(self):
        update = DataUpdate.insert(ITEM, [("1", "B")])
        assert update.relation == "Item"
        assert update.delta.count(("1", "B")) == 1

    def test_delete_constructor(self):
        update = DataUpdate.delete(ITEM, [("1", "B")])
        assert update.delta.count(("1", "B")) == -1

    def test_touched_relations(self):
        assert DataUpdate.insert(ITEM, []).touched_relations() == {"Item"}

    def test_describe_counts(self):
        update = DataUpdate(
            "Item",
            DataUpdate.insert(ITEM, [("1", "B"), ("2", "C")]).delta,
        )
        assert "+2/-0" in update.describe()

    def test_never_conflicts_with_query(self):
        message = envelope("retailer", DataUpdate.insert(ITEM, []))
        assert not conflicts(message)
        assert message.is_data_update and not message.is_schema_change


class TestSchemaChangeConflicts:
    def test_rename_relation_in_view_conflicts(self):
        message = envelope("retailer", RenameRelation("Store", "Shops"))
        assert conflicts(message)

    def test_rename_relation_not_in_view(self):
        message = envelope("retailer", RenameRelation("Other", "Other2"))
        assert not conflicts(message)

    def test_rename_relation_wrong_source(self):
        message = envelope("library", RenameRelation("Store", "Shops"))
        assert not conflicts(message)

    def test_drop_attribute_in_view_conflicts(self):
        message = envelope("library", DropAttribute("Catalog", "Review"))
        assert conflicts(message)

    def test_drop_attribute_not_in_view(self):
        # Catalog.Year is not referenced by the view query.
        message = envelope("library", DropAttribute("Catalog", "Year"))
        assert not conflicts(message)

    def test_rename_attribute_join_attr_conflicts(self):
        message = envelope(
            "retailer", RenameAttribute("Item", "SID", "StoreId")
        )
        assert conflicts(message)

    def test_add_attribute_never_conflicts(self):
        message = envelope(
            "library", AddAttribute("Catalog", Attribute("Year"))
        )
        assert not conflicts(message)

    def test_create_relation_never_conflicts(self):
        message = envelope(
            "library", CreateRelation(RelationSchema.of("New", ["a"]))
        )
        assert not conflicts(message)

    def test_drop_relation_conflicts(self):
        message = envelope("retailer", DropRelation("Item"))
        assert conflicts(message)

    def test_restructure_conflicts_if_any_dropped_in_view(self):
        change = RestructureRelations(
            dropped=("Store", "Item"),
            new_schema=RelationSchema.of("StoreItems", ["Store", "Book"]),
        )
        assert conflicts(envelope("retailer", change))

    def test_restructure_unrelated(self):
        change = RestructureRelations(
            dropped=("Other",),
            new_schema=RelationSchema.of("Other2", ["a"]),
        )
        assert not conflicts(envelope("retailer", change))


class TestTouchedRelations:
    def test_rename_touches_both_names(self):
        change = RenameRelation("Store", "Shops")
        assert change.touched_relations() == {"Store", "Shops"}

    def test_restructure_touches_all(self):
        change = RestructureRelations(
            dropped=("Store", "Item"),
            new_schema=RelationSchema.of("StoreItems", ["a"]),
        )
        assert change.touched_relations() == {"Store", "Item", "StoreItems"}

    def test_describe_mentions_kind(self):
        assert "rename" in RenameRelation("A", "B").describe()
        assert "drop" in DropAttribute("R", "a").describe()
        assert "restructure" in RestructureRelations(
            dropped=("A",), new_schema=RelationSchema.of("B", ["x"])
        ).describe()


class TestEnvelope:
    def test_describe_includes_source_and_seqno(self):
        message = envelope("retailer", DropRelation("Item"))
        assert "retailer#1" in message.describe()
        assert "repr" not in repr(message)  # repr delegates to describe

    def test_touched_relations_delegates(self):
        message = envelope("retailer", RenameRelation("A", "B"))
        assert message.touched_relations() == {"A", "B"}
