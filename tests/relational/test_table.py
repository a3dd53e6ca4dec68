"""Bag-semantics tables and physical schema evolution."""

import pytest

from repro.relational.delta import Delta
from repro.relational.errors import ArityError, DataError, TypeMismatchError
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.table import Table
from repro.relational.types import AttributeType

R = RelationSchema.of("R", [("k", AttributeType.INT), "v"])


@pytest.fixture
def table() -> Table:
    return Table(R, [(1, "a"), (2, "b")])


class TestDataManipulation:
    def test_insert_validates_types(self, table):
        with pytest.raises(TypeMismatchError):
            table.insert(("not-int", "x"))

    def test_insert_validates_arity(self, table):
        with pytest.raises(ArityError):
            table.insert((1,))

    def test_type_twins_keep_their_types(self):
        """Python holds ``1 == 1.0``: an INT row and a FLOAT row that
        compare equal must each keep the type its column declares (the
        sqlite backend round-trips values by type)."""
        ints = Table(RelationSchema.of("I", [("x", AttributeType.INT)]), [(1,)])
        floats = Table(
            RelationSchema.of("F", [("x", AttributeType.FLOAT)]), [(1.0,)]
        )
        (int_row,) = ints.rows()
        (float_row,) = floats.rows()
        assert int_row == float_row
        assert type(int_row[0]) is int
        assert type(float_row[0]) is float

    def test_bag_semantics(self, table):
        table.insert((1, "a"))
        assert table.count((1, "a")) == 2
        assert len(table) == 3
        assert table.distinct_count() == 2

    def test_delete(self, table):
        table.delete((1, "a"))
        assert (1, "a") not in table

    def test_delete_absent_raises(self, table):
        with pytest.raises(DataError):
            table.delete((9, "z"))

    def test_delete_more_than_present_raises(self, table):
        with pytest.raises(DataError):
            table.delete((1, "a"), count=2)

    def test_delete_partial_multiplicity(self, table):
        table.insert((1, "a"), 2)
        table.delete((1, "a"), 2)
        assert table.count((1, "a")) == 1

    def test_nonpositive_counts_rejected(self, table):
        with pytest.raises(DataError):
            table.insert((1, "a"), 0)
        with pytest.raises(DataError):
            table.delete((1, "a"), -1)

    def test_update(self, table):
        table.update((1, "a"), (1, "a2"))
        assert (1, "a2") in table
        assert (1, "a") not in table

    def test_apply_delta(self, table):
        delta = Delta(R)
        delta.add((3, "c"), 2)
        delta.add((1, "a"), -1)
        table.apply_delta(delta)
        assert table.count((3, "c")) == 2
        assert (1, "a") not in table

    def test_apply_delta_arity_mismatch(self, table):
        with pytest.raises(ArityError):
            table.apply_delta(Delta(RelationSchema.of("S", ["x"])))

    def test_clear(self, table):
        table.clear()
        assert len(table) == 0


class TestInspection:
    def test_iteration_with_multiplicity(self, table):
        table.insert((1, "a"))
        assert sorted(table) == [(1, "a"), (1, "a"), (2, "b")]

    def test_as_delta_roundtrip(self, table):
        rebuilt = Table(R)
        rebuilt.apply_delta(table.as_delta())
        assert rebuilt == table

    def test_extent_equality_ignores_names(self, table):
        other = Table(R.renamed("R2"), [(1, "a"), (2, "b")])
        assert table == other

    def test_equality_is_the_counter_comparison(self, table):
        """``Table.__eq__`` compares the count dicts in C.  That is
        ``Counter.__eq__`` (missing == 0) only while no zero count is
        stored — which every way in keeps: ``insert`` / ``from_counts``
        take positive counts, ``delete`` removes the key at zero."""
        from collections import Counter

        deleted_back = Table(R, [(1, "a"), (2, "b"), (3, "c"), (3, "c")])
        deleted_back.delete((3, "c"))
        deleted_back.delete((3, "c"))
        patched = Table(R, [(1, "a")])
        patched.apply_delta(Delta.insertion(R, [(2, "b"), (4, "d")]))
        patched.apply_delta(Delta.deletion(R, [(4, "d")]))
        others = [
            table.copy(),  # equal
            Table(R, [(2, "b"), (1, "a")]),  # equal, other insert order
            Table(R.renamed("R2"), [(1, "a"), (2, "b")]),  # other name
            Table.from_counts(R, {(1, "a"): 1, (2, "b"): 1}),  # adopted
            deleted_back,  # a row deleted back to absent
            patched,
            Table(R, [(1, "a")]),  # unequal: a row missing
            Table(R, [(1, "a"), (2, "b"), (2, "b")]),  # unequal: a count
            Table(R, [(1, "a"), (2, "x")]),  # unequal: a value
            Table(R),
        ]
        for other in others:
            assert 0 not in other._counts.values()
            expected = Counter.__eq__(table._counts, other._counts)
            assert (table == other) is expected
            assert (other == table) is expected
            assert (table != other) is not expected
        assert [table == other for other in others] == [True] * 6 + [False] * 4
        assert table.__eq__(object()) is NotImplemented

    def test_copy_independent(self, table):
        duplicate = table.copy()
        duplicate.insert((9, "z"))
        assert (9, "z") not in table

    def test_unhashable(self, table):
        with pytest.raises(TypeError):
            hash(table)


class TestPhysicalEvolution:
    def test_rename_attribute_keeps_rows(self, table):
        table.rename_attribute("v", "value")
        assert table.schema.attribute_names == ("k", "value")
        assert (1, "a") in table

    def test_drop_attribute_projects_rows(self, table):
        table.insert((1, "other"))
        table.drop_attribute("v")
        assert table.schema.attribute_names == ("k",)
        # (1,'a') and (1,'other') collapse into (1,) with multiplicity 2
        assert table.count((1,)) == 2
        assert table.count((2,)) == 1

    def test_add_attribute_fills_default(self, table):
        table.add_attribute(Attribute("w", AttributeType.STRING), "dflt")
        assert table.count((1, "a", "dflt")) == 1

    def test_add_attribute_null_default(self, table):
        table.add_attribute(Attribute("w", AttributeType.INT))
        assert table.count((2, "b", None)) == 1

    def test_add_attribute_validates_default(self, table):
        with pytest.raises(TypeMismatchError):
            table.add_attribute(Attribute("w", AttributeType.INT), "x")

    def test_renamed_copy(self, table):
        renamed = table.renamed("R9")
        assert renamed.schema.name == "R9"
        assert renamed == table
