"""Concurrent and semantic dependencies (Section 3), incl. Figure 4."""

from repro.core.dependencies import (
    Dependency,
    DependencyKind,
    NameResolver,
    footprint_of_query,
    footprint_of_update,
)
from repro.relational.schema import RelationSchema
from repro.sources.messages import (
    DataUpdate,
    DropAttribute,
    DropRelation,
    RenameRelation,
    RestructureRelations,
    UpdateMessage,
)
from tests.conftest import (
    CATALOG_SCHEMA,
    ITEM_SCHEMA,
    STOREITEMS_SCHEMA,
    bookinfo_query,
)
from tests.detection_oracle import find_dependencies, is_unsafe

QUERY = bookinfo_query()
#: no rename queued: every name is its own root
IDENTITY = NameResolver()


def message(source, seqno, payload) -> UpdateMessage:
    return UpdateMessage(source, seqno, float(seqno), payload)


class TestFootprints:
    def test_query_footprint_covers_relations_and_attrs(self):
        footprint = footprint_of_query(QUERY)
        assert ("retailer", "Store") in footprint.relations
        assert ("library", "Catalog", "Review") in footprint.attributes
        assert ("retailer", "Item", "SID") in footprint.attributes

    def test_excluded_alias_removed(self):
        footprint = footprint_of_query(QUERY, frozenset({"C"}))
        assert ("library", "Catalog") not in footprint.relations
        assert all(rel != "Catalog" for _s, rel, _a in footprint.attributes)

    def test_dangling_alias_reference_is_skipped(self):
        """A rewrite pipeline can hand ``footprint_of_query`` a query
        whose predicate references an alias no longer in the FROM list
        (SPJQuery's constructor validation is bypassed here to pin the
        contract); the footprint must skip the dangling reference
        instead of raising a bare KeyError."""
        from repro.relational.predicate import Comparison, attr
        from repro.relational.query import SPJQuery

        dangling = SPJQuery.__new__(SPJQuery)
        object.__setattr__(dangling, "relations", QUERY.relations)
        object.__setattr__(dangling, "projection", QUERY.projection)
        object.__setattr__(dangling, "joins", QUERY.joins)
        object.__setattr__(
            dangling, "selection", Comparison(attr("Z", "Ghost"), "=", 1)
        )
        footprint = footprint_of_query(dangling)
        assert ("retailer", "Store") in footprint.relations
        assert all(
            attribute != "Ghost"
            for _s, _r, attribute in footprint.attributes
        )

    def test_du_footprint_excludes_own_relation(self):
        du = message(
            "library", 1, DataUpdate.insert(CATALOG_SCHEMA, [])
        )
        footprint = footprint_of_update(du, QUERY, None, IDENTITY)
        assert ("library", "Catalog") not in footprint.relations
        assert ("retailer", "Item") in footprint.relations

    def test_sc_footprint_covers_whole_view(self):
        sc = message("library", 1, DropAttribute("Catalog", "Review"))
        footprint = footprint_of_update(sc, QUERY, None, IDENTITY)
        assert ("library", "Catalog") in footprint.relations

    def test_sc_footprint_includes_speculative_rewrite(self):
        sc = message("retailer", 1, DropRelation("Store"))

        def rewritten(_message):
            return QUERY.with_relation_renamed("library", "Catalog", "Cat2")

        footprint = footprint_of_update(sc, QUERY, rewritten, IDENTITY)
        assert ("library", "Cat2") in footprint.relations
        assert ("library", "Catalog") in footprint.relations  # old too

    def test_conflict_tests(self):
        footprint = footprint_of_query(QUERY)
        assert footprint.conflicted_by(
            "retailer", RenameRelation("Store", "S2"), IDENTITY
        )
        assert not footprint.conflicted_by(
            "retailer", RenameRelation("Other", "O2"), IDENTITY
        )
        assert footprint.conflicted_by(
            "library", DropAttribute("Catalog", "Review"), IDENTITY
        )
        assert not footprint.conflicted_by(
            "library", DropAttribute("Catalog", "Year"), IDENTITY
        )
        assert footprint.conflicted_by(
            "retailer",
            RestructureRelations(
                dropped=("Store",), new_schema=STOREITEMS_SCHEMA
            ),
            IDENTITY,
        )


class TestSemanticDependencies:
    def test_same_relation_chain(self):
        first = message("retailer", 1, DataUpdate.insert(ITEM_SCHEMA, []))
        second = message("retailer", 2, DataUpdate.insert(ITEM_SCHEMA, []))
        third = message("retailer", 3, DataUpdate.insert(ITEM_SCHEMA, []))
        deps = find_dependencies([first, second, third], QUERY)
        semantic = [d for d in deps if d.kind is DependencyKind.SEMANTIC]
        assert Dependency(0, 1, DependencyKind.SEMANTIC) in semantic
        assert Dependency(1, 2, DependencyKind.SEMANTIC) in semantic
        # adjacency only: no direct 0 -> 2 edge (transitivity suffices)
        assert Dependency(0, 2, DependencyKind.SEMANTIC) not in semantic

    def test_different_relations_no_edge(self):
        item = message("retailer", 1, DataUpdate.insert(ITEM_SCHEMA, []))
        catalog = message("library", 2, DataUpdate.insert(CATALOG_SCHEMA, []))
        deps = find_dependencies([item, catalog], QUERY)
        assert not [d for d in deps if d.kind is DependencyKind.SEMANTIC]

    def test_rename_bridges_buckets(self):
        du_old = message("retailer", 1, DataUpdate.insert(ITEM_SCHEMA, []))
        rename = message("retailer", 2, RenameRelation("Item", "Item2"))
        renamed_schema = ITEM_SCHEMA.renamed("Item2")
        du_new = message(
            "retailer", 3, DataUpdate.insert(renamed_schema, [])
        )
        deps = find_dependencies([du_old, rename, du_new], QUERY)
        semantic = [d for d in deps if d.kind is DependencyKind.SEMANTIC]
        assert Dependency(0, 1, DependencyKind.SEMANTIC) in semantic
        assert Dependency(1, 2, DependencyKind.SEMANTIC) in semantic


class TestConcurrentDependencies:
    def test_view_conflicting_sc_points_at_other_updates(self):
        du = message("library", 1, DataUpdate.insert(CATALOG_SCHEMA, []))
        sc = message("retailer", 2, DropRelation("Store"))
        deps = find_dependencies([du, sc], QUERY)
        concurrent = [d for d in deps if d.kind is DependencyKind.CONCURRENT]
        # SC (index 1) must precede the DU (index 0): an unsafe edge.
        assert Dependency(1, 0, DependencyKind.CONCURRENT) in concurrent
        assert any(is_unsafe(d) for d in concurrent)

    def test_sc_on_du_own_relation_no_edge(self):
        """Figure 4: SC2 (drop on Catalog) has no CD to DU1 (on Catalog)
        because DU1's maintenance never probes its own relation."""
        du = message("library", 1, DataUpdate.insert(CATALOG_SCHEMA, []))
        sc = message("library", 2, DropAttribute("Catalog", "Review"))
        deps = find_dependencies([du, sc], QUERY)
        concurrent = [d for d in deps if d.kind is DependencyKind.CONCURRENT]
        assert concurrent == []
        # but the semantic edge keeps their commit order
        semantic = [d for d in deps if d.kind is DependencyKind.SEMANTIC]
        assert Dependency(0, 1, DependencyKind.SEMANTIC) in semantic

    def test_figure_4_graph(self):
        """DU1 (insert Catalog), SC1 (restructure Store+Item), SC2 (drop
        Catalog.Review): the three-node cycle of Figure 4."""
        du1 = message("library", 1, DataUpdate.insert(CATALOG_SCHEMA, []))
        sc1 = message(
            "retailer",
            2,
            RestructureRelations(
                dropped=("Store", "Item"), new_schema=STOREITEMS_SCHEMA
            ),
        )
        sc2 = message("library", 3, DropAttribute("Catalog", "Review"))
        deps = find_dependencies([du1, sc1, sc2], QUERY)
        kinds = {(d.before_index, d.after_index, d.kind) for d in deps}
        # SC1 -> DU1 (CD: Store/Item are in DU1's probe footprint)
        assert (1, 0, DependencyKind.CONCURRENT) in kinds
        # DU1 -> SC2 (SD: same source relation, commit order)
        assert (0, 2, DependencyKind.SEMANTIC) in kinds
        # SC1 <-> SC2 (mutual CDs: both conflict with the view query)
        assert (1, 2, DependencyKind.CONCURRENT) in kinds
        assert (2, 1, DependencyKind.CONCURRENT) in kinds

    def test_du_only_queue_has_no_concurrent_edges(self):
        messages = [
            message("retailer", i, DataUpdate.insert(ITEM_SCHEMA, []))
            for i in range(1, 6)
        ]
        deps = find_dependencies(messages, QUERY)
        assert all(d.kind is DependencyKind.SEMANTIC for d in deps)
        assert all(not is_unsafe(d) for d in deps)

    def test_non_conflicting_sc_no_edges(self):
        du = message("retailer", 1, DataUpdate.insert(ITEM_SCHEMA, []))
        sc = message("library", 2, DropAttribute("Catalog", "Year"))
        deps = find_dependencies([du, sc], QUERY)
        assert not [d for d in deps if d.kind is DependencyKind.CONCURRENT]

    def test_edges_deduplicated(self):
        du = message("library", 1, DataUpdate.insert(CATALOG_SCHEMA, []))
        sc = message("retailer", 2, DropRelation("Store"))
        deps = find_dependencies([du, sc], QUERY)
        keys = [(d.before_index, d.after_index, d.kind) for d in deps]
        assert len(keys) == len(set(keys))


class TestSafety:
    def test_unsafe_orientation(self):
        assert is_unsafe(Dependency(2, 0, DependencyKind.CONCURRENT))
        assert not is_unsafe(Dependency(0, 2, DependencyKind.CONCURRENT))
