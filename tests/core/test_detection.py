"""The pre-exec detection entry point and the rename-lineage resolver."""

from repro.core.dependencies import NameResolver
from repro.core.detection import detect
from repro.relational.schema import RelationSchema
from repro.sources.messages import (
    CreateRelation,
    DataUpdate,
    DropAttribute,
    DropRelation,
    RenameAttribute,
    RenameRelation,
    UpdateMessage,
)
from tests.conftest import CATALOG_SCHEMA, ITEM_SCHEMA, bookinfo_query

QUERY = bookinfo_query()


def message(source, seqno, payload) -> UpdateMessage:
    return UpdateMessage(source, seqno, float(seqno), payload)


class TestDetect:
    def test_empty_queue(self):
        result = detect([], QUERY)
        assert not result.unsafe
        assert result.node_count == 0
        assert result.edge_count == 0

    def test_du_only_safe(self):
        messages = [
            message("retailer", i, DataUpdate.insert(ITEM_SCHEMA, []))
            for i in range(1, 4)
        ]
        result = detect(messages, QUERY)
        assert not result.unsafe
        assert result.node_count == 3

    def test_unsafe_reported(self):
        du = message("library", 1, DataUpdate.insert(CATALOG_SCHEMA, []))
        sc = message("retailer", 2, DropRelation("Store"))
        result = detect([du, sc], QUERY)
        assert result.unsafe
        assert any(
            dep.before_index == 1 and dep.after_index == 0
            for dep in result.unsafe
        )

    def test_multi_view_sequence_accepted(self):
        du = message("library", 1, DataUpdate.insert(CATALOG_SCHEMA, []))
        sc = message("retailer", 2, DropRelation("Store"))
        result = detect([du, sc], (QUERY, QUERY))
        assert result.unsafe


class TestNameResolver:
    def test_rename_chain_resolves_to_root(self):
        messages = [
            message("s", 1, RenameRelation("R", "R__v2")),
            message("s", 2, RenameRelation("R__v2", "R__v3")),
        ]
        resolver = NameResolver(messages)
        assert resolver.relation("s", "R__v3") == "R"
        assert resolver.relation("s", "R__v2") == "R"
        assert resolver.relation("s", "R") == "R"

    def test_unrelated_names_identity(self):
        resolver = NameResolver([])
        assert resolver.relation("s", "X") == "X"
        assert resolver.attribute("s", "R", "a") == ("R", "a")

    def test_per_source_isolation(self):
        messages = [message("s1", 1, RenameRelation("R", "R2"))]
        resolver = NameResolver(messages)
        assert resolver.relation("s1", "R2") == "R"
        assert resolver.relation("s2", "R2") == "R2"

    def test_attribute_chain_through_relation_rename(self):
        messages = [
            message("s", 1, RenameAttribute("R", "a", "a2")),
            message("s", 2, RenameRelation("R", "R2")),
            message("s", 3, RenameAttribute("R2", "a2", "a3")),
        ]
        resolver = NameResolver(messages)
        assert resolver.attribute("s", "R2", "a3") == ("R", "a")

    def test_created_relation_starts_fresh_lineage(self):
        from repro.sources.messages import RestructureRelations

        messages = [
            message("s", 1, RenameRelation("R", "Flat")),
            message(
                "s",
                2,
                RestructureRelations(
                    dropped=("T",),
                    new_schema=RelationSchema.of("Flat2", ["a"]),
                ),
            ),
            message("s", 3, RenameRelation("Flat2", "Flat3")),
        ]
        resolver = NameResolver(messages)
        # Flat3 roots at Flat2 (created), not at anything earlier.
        assert resolver.relation("s", "Flat3") == "Flat2"

    def test_rename_chain_detection_merges_tail(self):
        """The FIG-10 interval-0 regression: every link of a rename
        chain must join the conflict set."""
        du = message("library", 1, DataUpdate.insert(CATALOG_SCHEMA, []))
        renames = [
            message("retailer", 2, RenameRelation("Item", "Item__v2")),
            message("retailer", 3, RenameRelation("Item__v2", "Item__v3")),
            message("retailer", 4, RenameRelation("Item__v3", "Item__v4")),
        ]
        result = detect([du] + renames, QUERY)
        # every rename must have a CD edge to the DU (whose footprint
        # includes Item), so all are unsafe w.r.t. the DU ahead of them
        cd_edges = [
            dep
            for dep in result.graph.dependencies
            if dep.kind.value == "cd" and dep.after_index == 0
        ]
        assert {dep.before_index for dep in cd_edges} == {1, 2, 3}
