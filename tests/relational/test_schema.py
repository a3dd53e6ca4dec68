"""Relation schemas: construction, lookups, evolution."""

import pickle

import pytest

from repro.relational.errors import (
    DuplicateAttributeError,
    SchemaError,
    UnknownAttributeError,
)
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.types import AttributeType


@pytest.fixture
def item() -> RelationSchema:
    return RelationSchema.of(
        "Item",
        [
            ("SID", AttributeType.INT),
            "Book",
            "Author",
            ("Price", AttributeType.FLOAT),
        ],
    )


class TestConstruction:
    def test_of_accepts_mixed_forms(self, item):
        assert item.attribute_names == ("SID", "Book", "Author", "Price")
        assert item.attribute("SID").type is AttributeType.INT
        assert item.attribute("Book").type is AttributeType.STRING

    def test_of_accepts_attribute_objects(self):
        schema = RelationSchema.of(
            "R", [Attribute("a", AttributeType.BOOL)]
        )
        assert schema.attribute("a").type is AttributeType.BOOL

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(DuplicateAttributeError):
            RelationSchema.of("R", ["a", "a"])

    def test_invalid_relation_name_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema.of("bad name", ["a"])

    def test_invalid_attribute_name_rejected(self):
        with pytest.raises(SchemaError):
            RelationSchema.of("R", ["bad-attr"])

    def test_arity(self, item):
        assert item.arity == 4

    def test_contains(self, item):
        assert "Book" in item
        assert "Title" not in item

    def test_remembered_names_change_no_pickle_equality_or_hash(self, item):
        cold = RelationSchema(item.name, item.attributes)
        shipped = pickle.dumps(cold)
        assert "Price" in item and "price" not in item
        assert "_names" in vars(item)
        assert item == cold and hash(item) == hash(cold)
        assert repr(item) == repr(cold)
        assert pickle.dumps(item) == shipped
        copy = pickle.loads(shipped)
        assert set(vars(copy)) == {"name", "attributes"}
        assert copy == item and hash(copy) == hash(item)
        assert [name in copy for name in ("SID", "Book", "Title")] == [
            True, True, False,
        ]

    def test_iteration_order(self, item):
        assert [a.name for a in item] == ["SID", "Book", "Author", "Price"]


class TestLookups:
    def test_index_of(self, item):
        assert item.index_of("Author") == 2

    def test_index_of_unknown_raises(self, item):
        with pytest.raises(UnknownAttributeError) as excinfo:
            item.index_of("Title")
        assert excinfo.value.attribute == "Title"
        assert excinfo.value.relation == "Item"

    def test_attribute_lookup(self, item):
        assert item.attribute("Price").type is AttributeType.FLOAT


class TestEvolution:
    def test_renamed_relation(self, item):
        renamed = item.renamed("Items2")
        assert renamed.name == "Items2"
        assert renamed.attributes == item.attributes
        assert item.name == "Item"  # original untouched

    def test_rename_attribute(self, item):
        renamed = item.rename_attribute("Book", "Title")
        assert renamed.attribute_names == ("SID", "Title", "Author", "Price")
        assert renamed.attribute("Title").type is AttributeType.STRING

    def test_rename_attribute_unknown_raises(self, item):
        with pytest.raises(UnknownAttributeError):
            item.rename_attribute("Nope", "X")

    def test_drop_attribute(self, item):
        dropped = item.drop_attribute("Author")
        assert dropped.attribute_names == ("SID", "Book", "Price")

    def test_drop_last_attribute_rejected(self):
        single = RelationSchema.of("R", ["only"])
        with pytest.raises(SchemaError):
            single.drop_attribute("only")

    def test_add_attribute(self, item):
        extended = item.add_attribute(Attribute("Year", AttributeType.INT))
        assert extended.attribute_names[-1] == "Year"
        assert extended.arity == 5

    def test_add_duplicate_rejected(self, item):
        with pytest.raises(DuplicateAttributeError):
            item.add_attribute(Attribute("Book"))


class TestRendering:
    def test_sql(self, item):
        assert item.sql() == (
            "Item(SID INTEGER, Book VARCHAR, Author VARCHAR, Price REAL)"
        )

    def test_attribute_renamed_helper(self):
        attribute = Attribute("a", AttributeType.INT)
        assert attribute.renamed("b") == Attribute("b", AttributeType.INT)
