"""Dependency correction: legal orders, Figure 4 merge, blind merge."""

from repro.core.correction import correct, merge_all
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
from tests.detection_oracle import detect, find_dependencies

QUERY = bookinfo_query()


def corrected(messages):
    """Correction over the from-scratch graph of ``messages``."""
    return correct(messages, detect(messages, QUERY))


def message(source, seqno, payload) -> UpdateMessage:
    return UpdateMessage(source, seqno, float(seqno), payload)


def assert_legal(messages, units):
    """Def. 7: within the corrected order all dependencies are safe."""
    ordered = [m for unit in units for m in unit]
    position = {id(m): index for index, m in enumerate(ordered)}
    unit_of = {}
    for unit_index, unit in enumerate(units):
        for m in unit:
            unit_of[id(m)] = unit_index
    deps = find_dependencies(messages, QUERY)
    by_id = {index: m for index, m in enumerate(messages)}
    for dep in deps:
        before = by_id[dep.before_index]
        after = by_id[dep.after_index]
        assert unit_of[id(before)] <= unit_of[id(after)], (
            f"dependency violated: {before.describe()} must precede "
            f"{after.describe()}"
        )


class TestCorrect:
    def test_du_only_queue_unchanged(self):
        messages = [
            message("retailer", i, DataUpdate.insert(ITEM_SCHEMA, []))
            for i in range(1, 5)
        ]
        result = corrected(messages)
        assert not result.changed
        assert result.merges == 0
        assert [m for u in result.units for m in u] == messages

    def test_unsafe_sc_moved_forward(self):
        du = message("library", 1, DataUpdate.insert(CATALOG_SCHEMA, []))
        sc = message("retailer", 2, DropRelation("Store"))
        result = corrected([du, sc])
        assert result.changed
        ordered = [m for u in result.units for m in u]
        assert ordered[0] is sc
        assert_legal([du, sc], result.units)

    def test_figure_4_merges_cycle(self):
        du1 = message("library", 1, DataUpdate.insert(CATALOG_SCHEMA, []))
        sc1 = message(
            "retailer",
            2,
            RestructureRelations(
                dropped=("Store", "Item"), new_schema=STOREITEMS_SCHEMA
            ),
        )
        sc2 = message("library", 3, DropAttribute("Catalog", "Review"))
        result = corrected([du1, sc1, sc2])
        assert result.merges == 1
        assert len(result.units) == 1
        batch = result.units[0]
        assert len(batch) == 3
        # commit order preserved inside the batch
        assert [m.seqno for m in batch] == [1, 2, 3]
        assert_legal([du1, sc1, sc2], result.units)

    def test_mutual_sc_conflict_merges(self):
        sc1 = message("library", 1, DropAttribute("Catalog", "Review"))
        sc2 = message("retailer", 2, RenameRelation("Item", "Item2"))
        result = corrected([sc1, sc2])
        assert result.merges == 1
        assert len(result.units) == 1

    def test_independent_updates_keep_fifo(self):
        first = message("retailer", 1, DataUpdate.insert(ITEM_SCHEMA, []))
        second = message(
            "library", 2, DataUpdate.insert(CATALOG_SCHEMA, [])
        )
        non_conflicting = message(
            "library", 3, DropAttribute("Catalog", "Year")
        )
        result = corrected([first, second, non_conflicting])
        assert [m for u in result.units for m in u] == [
            first,
            second,
            non_conflicting,
        ]

    def test_empty_queue(self):
        result = corrected([])
        assert result.units == []
        assert not result.changed

    def test_detection_counts_exposed(self):
        du = message("library", 1, DataUpdate.insert(CATALOG_SCHEMA, []))
        sc = message("retailer", 2, DropRelation("Store"))
        result = corrected([du, sc])
        assert result.node_count == 2
        assert result.edge_count >= 1


class TestMergeAll:
    def test_single_batch(self):
        du = message("library", 1, DataUpdate.insert(CATALOG_SCHEMA, []))
        sc = message("retailer", 2, DropRelation("Store"))
        result = merge_all([du, sc], detect([du, sc], QUERY))
        assert len(result.units) == 1
        assert len(result.units[0]) == 2
        assert result.changed

    def test_empty(self):
        result = merge_all([], detect([], QUERY))
        assert result.units == []
