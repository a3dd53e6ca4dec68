"""Schema history: forward-translation of stale data updates."""

import pytest

from repro.maintenance.history import SchemaHistory
from repro.relational.delta import Delta
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

R = RelationSchema.of("R", [("k", AttributeType.INT), "a", "b"])


def du(rows, schema=R, relation=None) -> DataUpdate:
    return DataUpdate(
        relation or schema.name, Delta.insertion(schema, rows)
    )


class TestRelationLineage:
    def test_identity_when_empty(self):
        history = SchemaHistory()
        assert history.is_empty()
        assert history.relations.now("s", "R") == "R"

    def test_rename_chain(self):
        history = SchemaHistory()
        history.record("s", RenameRelation("R", "R2"))
        history.record("s", RenameRelation("R2", "R3"))
        assert history.relations.now("s", "R") == "R3"
        assert history.relations.now("s", "R2") == "R3"

    def test_drop_terminates_lineage(self):
        history = SchemaHistory()
        history.record("s", RenameRelation("R", "R2"))
        history.record("s", DropRelation("R2"))
        assert history.relations.now("s", "R") is None
        assert history.relations.now("s", "R2") is None

    def test_restructure_drops_and_fresh_lineage(self):
        history = SchemaHistory()
        history.record(
            "s",
            RestructureRelations(
                dropped=("R",), new_schema=RelationSchema.of("Flat", ["x"])
            ),
        )
        assert history.relations.now("s", "R") is None
        assert history.relations.now("s", "Flat") == "Flat"

    def test_sources_independent(self):
        history = SchemaHistory()
        history.record("s1", RenameRelation("R", "R2"))
        assert history.relations.now("s2", "R") == "R"


class TestReusedNames:
    """A reused name is its latest holder's."""

    def test_a_relation_renamed_into_a_dropped_name_holds_it(self):
        history = SchemaHistory()
        history.record("s", DropRelation("R"))
        history.record("s", RenameRelation("S", "R"))
        assert history.relations.now("s", "R") == "R"
        assert history.relations.now("s", "S") == "R"
        assert sorted(history.committed_names("s", "R")) == ["R", "S"]
        update = du([(1, "x", "y")])
        assert history.translate_data_update("s", update) is update

    def test_a_recreated_relation_is_not_the_dropped_one(self):
        history = SchemaHistory()
        history.record("s", RenameAttribute("R", "a", "a2"))
        history.record("s", DropRelation("R"))
        history.record("s", CreateRelation(R))
        update = du([(1, "x", "y")])
        assert history.translate_data_update("s", update) is update
        assert history.committed_names("s", "R") == ["R"]

    def test_a_renamed_away_name_is_nobodys_committed_name(self):
        history = SchemaHistory()
        history.record("s", RenameRelation("R", "S"))
        assert history.committed_names("s", "R") == []
        assert history.committed_names("s", "S") == ["R", "S"]


def layout(history, update) -> tuple:
    """``(relation, attribute names)`` a stale ``update`` translates to."""
    translated = history.translate_data_update("s", update)
    return translated.relation, translated.delta.schema.attribute_names


class TestAttributeLineage:
    def test_attribute_rename_chain(self):
        history = SchemaHistory()
        history.record("s", RenameAttribute("R", "a", "a2"))
        history.record("s", RenameAttribute("R", "a2", "a3"))
        middle = R.rename_attribute("a", "a2")
        assert layout(history, du([(1, "x", "y")])) == ("R", ("k", "a3", "b"))
        assert layout(history, du([(1, "x", "y")], middle)) == (
            "R", ("k", "a3", "b")
        )

    def test_attribute_map_survives_relation_rename(self):
        history = SchemaHistory()
        history.record("s", RenameAttribute("R", "a", "a2"))
        history.record("s", RenameRelation("R", "R2"))
        assert layout(history, du([(1, "x", "y")])) == ("R2", ("k", "a2", "b"))

    def test_drop_attribute_tombstones(self):
        history = SchemaHistory()
        history.record("s", RenameAttribute("R", "a", "a2"))
        history.record("s", DropAttribute("R", "a2"))
        assert layout(history, du([(1, "x", "y")])) == ("R", ("k", "b"))


class TestTranslation:
    def test_identity_fast_path(self):
        history = SchemaHistory()
        history.record("s", CreateRelation(RelationSchema.of("Other", ["x"])))
        update = du([(1, "x", "y")])
        assert history.translate_data_update("s", update) is update

    def test_relation_rename_translates_name(self):
        history = SchemaHistory()
        history.record("s", RenameRelation("R", "R2"))
        translated = history.translate_data_update("s", du([(1, "x", "y")]))
        assert translated.relation == "R2"
        assert translated.delta.count((1, "x", "y")) == 1
        assert translated.delta.schema.name == "R2"

    def test_attribute_rename_renames_column(self):
        history = SchemaHistory()
        history.record("s", RenameAttribute("R", "a", "alpha"))
        translated = history.translate_data_update("s", du([(1, "x", "y")]))
        assert translated.delta.schema.attribute_names == ("k", "alpha", "b")
        assert translated.delta.count((1, "x", "y")) == 1

    def test_dropped_attribute_projected_out(self):
        history = SchemaHistory()
        history.record("s", DropAttribute("R", "a"))
        translated = history.translate_data_update("s", du([(1, "x", "y")]))
        assert translated.delta.schema.attribute_names == ("k", "b")
        assert translated.delta.count((1, "y")) == 1

    def test_added_attribute_becomes_null(self):
        history = SchemaHistory()
        history.record(
            "s", AddAttribute("R", Attribute("c", AttributeType.STRING))
        )
        translated = history.translate_data_update("s", du([(1, "x", "y")]))
        assert translated.delta.schema.attribute_names == ("k", "a", "b", "c")
        assert translated.delta.count((1, "x", "y", None)) == 1

    def test_history_of_adds_alone_still_translates_messages(self):
        """``translate_message`` short-circuits on an empty history; a
        history holding only an ``AddAttribute`` is not empty, and a
        data update committed before the add comes back NULL-padded."""
        history = SchemaHistory()
        history.record(
            "s", AddAttribute("R", Attribute("c", AttributeType.STRING))
        )
        assert not history.is_empty()
        stale = UpdateMessage("s", 1, 0.0, du([(1, "x", "y")]))
        translated = history.translate_message(stale)
        assert translated.payload.delta.schema.attribute_names == (
            "k", "a", "b", "c",
        )
        assert translated.payload.delta.count((1, "x", "y", None)) == 1

    def test_dropped_relation_translates_to_none(self):
        history = SchemaHistory()
        history.record("s", DropRelation("R"))
        assert history.translate_data_update("s", du([(1, "x", "y")])) is None

    def test_combined_rename_and_drop(self):
        history = SchemaHistory()
        history.record("s", RenameRelation("R", "R2"))
        history.record("s", RenameAttribute("R2", "a", "alpha"))
        history.record("s", DropAttribute("R2", "b"))
        translated = history.translate_data_update("s", du([(7, "p", "q")]))
        assert translated.relation == "R2"
        assert translated.delta.schema.attribute_names == ("k", "alpha")
        assert translated.delta.count((7, "p")) == 1

    def test_counts_preserved(self):
        history = SchemaHistory()
        history.record("s", RenameRelation("R", "R2"))
        delta = Delta(R)
        delta.add((1, "x", "y"), 3)
        delta.add((2, "w", "z"), -2)
        translated = history.translate_data_update(
            "s", DataUpdate("R", delta)
        )
        assert translated.delta.count((1, "x", "y")) == 3
        assert translated.delta.count((2, "w", "z")) == -2

    def test_types_preserved(self):
        history = SchemaHistory()
        history.record("s", RenameAttribute("R", "k", "key"))
        translated = history.translate_data_update("s", du([(1, "x", "y")]))
        assert (
            translated.delta.schema.attribute("key").type
            is AttributeType.INT
        )
