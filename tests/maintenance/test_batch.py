"""Section 5 batch preprocessing: combining SCs, homogenizing DUs
(the translate + coalesce pair)."""

import pytest

from repro.maintenance.batch import (
    combine_schema_changes,
    data_updates_of,
    schema_changes_of,
)
from repro.maintenance.grouping import coalesce_data_updates
from repro.maintenance.history import SchemaHistory
from repro.relational.delta import Delta
from repro.relational.schema import Attribute, RelationSchema
from repro.sources.errors import UpdateApplicationError
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
from repro.views.umq import MaintenanceUnit

R = RelationSchema.of("R", ["a", "b", "c"])


class TestCombineRenames:
    def test_rename_chain_collapses(self):
        """'rename A to B' then 'rename B to C' -> 'rename A to C'."""
        combined = combine_schema_changes(
            [
                ("s", RenameRelation("R", "R2")),
                ("s", RenameRelation("R2", "R3")),
            ]
        )
        assert combined == [("s", RenameRelation("R", "R3"))]

    def test_attribute_rename_chain_collapses(self):
        combined = combine_schema_changes(
            [
                ("s", RenameAttribute("R", "a", "a2")),
                ("s", RenameAttribute("R", "a2", "a3")),
            ]
        )
        assert combined == [("s", RenameAttribute("R", "a", "a3"))]

    def test_rename_back_to_original_vanishes(self):
        combined = combine_schema_changes(
            [
                ("s", RenameRelation("R", "R2")),
                ("s", RenameRelation("R2", "R")),
            ]
        )
        assert combined == []

    def test_rename_then_drop_attr_uses_original_names(self):
        combined = combine_schema_changes(
            [
                ("s", RenameRelation("R", "R2")),
                ("s", DropAttribute("R2", "b")),
            ]
        )
        assert ("s", DropAttribute("R", "b")) in combined
        assert ("s", RenameRelation("R", "R2")) in combined
        # attribute change emitted before the relation rename
        assert combined.index(
            ("s", DropAttribute("R", "b"))
        ) < combined.index(("s", RenameRelation("R", "R2")))

    def test_attr_rename_then_drop_collapses(self):
        combined = combine_schema_changes(
            [
                ("s", RenameAttribute("R", "a", "a2")),
                ("s", DropAttribute("R", "a2")),
            ]
        )
        assert combined == [("s", DropAttribute("R", "a"))]

    def test_rename_then_drop_relation_collapses(self):
        combined = combine_schema_changes(
            [
                ("s", RenameRelation("R", "R2")),
                ("s", DropRelation("R2")),
            ]
        )
        assert combined == [("s", DropRelation("R"))]

    def test_adds_preserved(self):
        added = AddAttribute("R", Attribute("z"), "dflt")
        combined = combine_schema_changes([("s", added)])
        assert combined == [("s", AddAttribute("R", Attribute("z"), "dflt"))]

    def test_same_name_different_sources_independent(self):
        combined = combine_schema_changes(
            [
                ("s1", RenameRelation("R", "R2")),
                ("s2", RenameRelation("R", "R9")),
            ]
        )
        assert ("s1", RenameRelation("R", "R2")) in combined
        assert ("s2", RenameRelation("R", "R9")) in combined

    def test_restructure_falls_back_to_sequence(self):
        sequence = [
            ("s", RenameRelation("R", "R2")),
            (
                "s",
                RestructureRelations(
                    dropped=("R2",),
                    new_schema=RelationSchema.of("Flat", ["a"]),
                ),
            ),
        ]
        assert combine_schema_changes(sequence) == sequence

    def test_create_falls_back_to_sequence(self):
        sequence = [
            ("s", CreateRelation(RelationSchema.of("New", ["a"]))),
            ("s", RenameRelation("New", "New2")),
        ]
        assert combine_schema_changes(sequence) == sequence


class TestUnitPartitioning:
    def unit(self) -> MaintenanceUnit:
        du = UpdateMessage(
            "s", 1, 0.0, DataUpdate.insert(R, [("1", "2", "3")])
        )
        sc = UpdateMessage("s", 2, 1.0, DropAttribute("R", "b"))
        return MaintenanceUnit([du, sc])

    def test_schema_changes_of(self):
        changes = schema_changes_of(self.unit())
        assert changes == [("s", DropAttribute("R", "b"))]

    def test_data_updates_of(self):
        updates = data_updates_of(self.unit())
        assert len(updates) == 1
        assert updates[0].is_data_update


def homogenized(changes, updates):
    """Section 5's homogenisation as the warehouse performs it: every
    update translated through the installed ``changes``
    (:class:`SchemaHistory`), same-relation deltas coalesced."""
    history = SchemaHistory()
    for source, change in changes:
        history.record(source, change)
    translated = [history.translate_message(update) for update in updates]
    merged = coalesce_data_updates(
        [message for message in translated if message is not None]
    )
    return {
        (message.source, message.payload.relation): message.payload.delta
        for message in merged
    }


class TestHomogenize:
    def test_projection_across_schema_versions(self):
        """insert (3,4); drop first attribute; insert (5) -> (4),(5)."""
        wide = RelationSchema.of("R", ["x", "y"])
        narrow = RelationSchema.of("R", ["y"])
        du_old = UpdateMessage(
            "s", 1, 0.0, DataUpdate.insert(wide, [("3", "4")])
        )
        du_new = UpdateMessage(
            "s", 3, 2.0, DataUpdate.insert(narrow, [("5",)])
        )
        merged = homogenized(
            [("s", DropAttribute("R", "x"))], [du_old, du_new]
        )
        delta = merged[("s", "R")]
        assert delta.schema == narrow
        assert delta.count(("4",)) == 1
        assert delta.count(("5",)) == 1

    def test_renamed_relation_mapped(self):
        schema = RelationSchema.of("R", ["a"])
        du = UpdateMessage("s", 1, 0.0, DataUpdate.insert(schema, [("v",)]))
        merged = homogenized([("s", RenameRelation("R", "R2"))], [du])
        assert merged[("s", "R2")].count(("v",)) == 1

    def test_missing_attribute_becomes_null(self):
        old = RelationSchema.of("R", ["a"])
        du = UpdateMessage("s", 1, 0.0, DataUpdate.insert(old, [("v",)]))
        merged = homogenized(
            [("s", AddAttribute("R", Attribute("b")))], [du]
        )
        assert merged[("s", "R")].count(("v", None)) == 1

    def test_dropped_relation_skipped(self):
        schema = RelationSchema.of("R", ["a"])
        du = UpdateMessage("s", 1, 0.0, DataUpdate.insert(schema, [("v",)]))
        assert homogenized([("s", DropRelation("R"))], [du]) == {}

    def test_deletes_merge_with_inserts(self):
        """A cancelling pair leaves nothing to probe for."""
        schema = RelationSchema.of("R", ["a"])
        du1 = UpdateMessage("s", 1, 0.0, DataUpdate.insert(schema, [("v",)]))
        du2 = UpdateMessage("s", 2, 1.0, DataUpdate.delete(schema, [("v",)]))
        assert homogenized([], [du1, du2]) == {}

    def test_delete_then_reinsert_across_rename_and_drop_gap(self):
        """A row deleted under the old wide schema and reinserted under
        the renamed, narrowed one: both sides homogenize to the same
        final-schema tuple and cancel to a net no-op (the view already
        holds the surviving projection of the row)."""
        wide = RelationSchema.of("R", ["k", "b"])
        narrow = RelationSchema.of("R2", ["k"])
        changes = [
            ("s", RenameRelation("R", "R2")),
            ("s", DropAttribute("R2", "b")),
        ]
        delete_old = UpdateMessage(
            "s", 1, 0.0, DataUpdate.delete(wide, [("1", "x")])
        )
        reinsert_new = UpdateMessage(
            "s", 3, 2.0, DataUpdate.insert(narrow, [("1",)])
        )
        assert homogenized(changes, [delete_old, reinsert_new]) == {}
        # A sibling key deleted but *not* reinserted must survive as a
        # net deletion in the homogenized delta.
        delete_other = UpdateMessage(
            "s", 2, 1.0, DataUpdate.delete(wide, [("9", "y")])
        )
        merged = homogenized(
            changes, [delete_old, delete_other, reinsert_new]
        )
        assert merged[("s", "R2")].count(("9",)) == -1
        assert merged[("s", "R2")].count(("1",)) == 0

    def test_empty_du_subgroup_beside_nonempty_sc_subgroup(self):
        """A batch whose messages are all schema changes: the DU
        subgroup is empty, and homogenization must return no deltas at
        all — not empty per-relation entries — while the SC subgroup
        still partitions out intact."""
        sc1 = UpdateMessage("s", 1, 0.0, DropAttribute("R", "b"))
        sc2 = UpdateMessage("s", 2, 1.0, RenameRelation("R", "R2"))
        unit = MaintenanceUnit([sc1, sc2])
        assert data_updates_of(unit) == []
        assert schema_changes_of(unit) == [
            ("s", DropAttribute("R", "b")),
            ("s", RenameRelation("R", "R2")),
        ]
        assert homogenized(schema_changes_of(unit), data_updates_of(unit)) == {}


class TestCombineEmissionHazards:
    """Regression pins for applicability hazards found by hypothesis."""

    def apply_to_source(self, combined):
        from repro.relational.types import AttributeType
        from repro.sources.source import DataSource

        source = DataSource("s")
        source.create_relation(
            RelationSchema.of(
                "T", [("k", AttributeType.INT), "x"]
            ),
            [(1, "v")],
        )
        source.create_relation(RelationSchema.of("U", ["u"]), [("w",)])
        for _source, change in combined:
            source.commit(change)
        return source

    def test_add_then_rename_added_folds_into_add(self):
        combined = combine_schema_changes(
            [
                ("s", AddAttribute("T", Attribute("extra"))),
                ("s", RenameAttribute("T", "extra", "extra2")),
            ]
        )
        assert combined == [("s", AddAttribute("T", Attribute("extra2")))]
        source = self.apply_to_source(combined)
        assert "extra2" in source.schema_of("T")

    def test_add_then_drop_added_cancels(self):
        combined = combine_schema_changes(
            [
                ("s", AddAttribute("T", Attribute("extra"))),
                ("s", DropAttribute("T", "extra")),
            ]
        )
        assert combined == []

    def test_adds_emitted_before_drops_avoid_empty_relation(self):
        combined = combine_schema_changes(
            [
                ("s", AddAttribute("T", Attribute("extra"))),
                ("s", DropAttribute("T", "k")),
                ("s", DropAttribute("T", "x")),
            ]
        )
        source = self.apply_to_source(combined)  # must not raise
        assert source.schema_of("T").attribute_names == ("extra",)

    def test_drop_into_rename_target_emitted_first(self):
        combined = combine_schema_changes(
            [
                ("s", DropAttribute("T", "x")),
                ("s", RenameAttribute("T", "k", "x")),
            ]
        )
        source = self.apply_to_source(combined)  # must not raise
        assert source.schema_of("T").attribute_names == ("x",)

    def test_empty_batch(self):
        assert combine_schema_changes([]) == []

    def test_restructure_mid_batch_falls_back_whole_sequence(self):
        """The conservative fallback is all-or-nothing: one
        restructure anywhere keeps every change uncombined, even the
        otherwise collapsible rename chain around it."""
        sequence = [
            ("s", RenameRelation("T", "T2")),
            ("s", RenameRelation("T2", "T3")),
            (
                "s",
                RestructureRelations(
                    dropped=("T3",),
                    new_schema=RelationSchema.of("Flat", ["a"]),
                ),
            ),
            ("s", RenameRelation("Flat", "Flat2")),
        ]
        assert combine_schema_changes(sequence) == sequence

    def test_create_mid_batch_falls_back_whole_sequence(self):
        sequence = [
            ("s", RenameAttribute("T", "x", "x2")),
            ("s", CreateRelation(RelationSchema.of("New", ["a"]))),
            ("s", DropAttribute("T", "x2")),
        ]
        assert combine_schema_changes(sequence) == sequence

    def test_rename_relation_then_attr_rename_then_drop_collapses(self):
        """A drop reached through both a relation and an attribute
        rename resolves all the way back to the original names."""
        combined = combine_schema_changes(
            [
                ("s", RenameRelation("T", "T2")),
                ("s", RenameAttribute("T2", "x", "x2")),
                ("s", DropAttribute("T2", "x2")),
            ]
        )
        assert combined == [
            ("s", DropAttribute("T", "x")),
            ("s", RenameRelation("T", "T2")),
        ]
        source = self.apply_to_source(combined)
        assert source.schema_of("T2").attribute_names == ("k",)

    def test_add_then_rename_on_renamed_relation(self):
        """add-then-rename folds into one addition even when the
        relation itself was renamed first; the emitted addition is
        addressed by the original relation name."""
        combined = combine_schema_changes(
            [
                ("s", RenameRelation("T", "T2")),
                ("s", AddAttribute("T2", Attribute("extra"))),
                ("s", RenameAttribute("T2", "extra", "extra2")),
            ]
        )
        assert combined == [
            ("s", AddAttribute("T", Attribute("extra2"))),
            ("s", RenameRelation("T", "T2")),
        ]
        source = self.apply_to_source(combined)
        assert "extra2" in source.schema_of("T2")

    def test_rename_swap_falls_back_to_original_sequence(self):
        sequence = [
            ("s", RenameAttribute("T", "k", "tmp")),
            ("s", RenameAttribute("T", "x", "k")),
            ("s", RenameAttribute("T", "tmp", "x")),
        ]
        combined = combine_schema_changes(sequence)
        assert combined == sequence  # uncombined: always applicable
        source = self.apply_to_source(combined)
        assert source.schema_of("T").attribute_names == ("x", "k")

    @pytest.mark.xfail(
        strict=True,
        raises=UpdateApplicationError,
        reason="the emission order vacates a name early only for an "
        "attribute rename",
    )
    @pytest.mark.parametrize(
        "sequence",
        [
            [DropAttribute("T", "x"), AddAttribute("T", Attribute("x"))],
            [
                AddAttribute("U", Attribute("extra")),
                DropRelation("T"),
                RenameRelation("U", "T"),
            ],
        ],
        ids=["re-added attribute", "relation renamed into a dropped name"],
    )
    def test_a_reused_name_can_outrun_its_vacating_change(self, sequence):
        """Pinned limitation: a dropped attribute name added again, or a
        relation touched first and renamed into a name dropped later,
        combines to a list whose reuse precedes the drop."""
        self.apply_to_source(
            combine_schema_changes([("s", change) for change in sequence])
        )
