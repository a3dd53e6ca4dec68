"""SelfMaintenanceStore: coverage, local sync, SC invalidation, reseed."""

import pytest

from repro.maintenance.selfmaint import SelfMaintenanceStore
from repro.relational.executor import execute
from repro.relational.predicate import InPredicate, attr
from repro.relational.query import JoinCondition, RelationRef, SPJQuery
from repro.relational.schema import RelationSchema
from repro.relational.types import AttributeType
from repro.sim.metrics import Metrics
from repro.sources.messages import (
    DataUpdate,
    DropAttribute,
    RenameRelation,
)
from repro.sources.replica import LocalHit
from repro.sources.source import DataSource

R = RelationSchema.of(
    "R",
    [("k", AttributeType.INT), "a", ("b", AttributeType.INT)],
)
S = RelationSchema.of("S", [("k", AttributeType.INT), "x"])


def make_source() -> DataSource:
    source = DataSource("s")
    source.create_relation(R, [(1, "p", 10), (2, "q", 20), (3, "r", 30)])
    source.create_relation(S, [(1, "z")])
    return source


def view_query() -> SPJQuery:
    """A two-way join referencing R.k, R.a and S.k, S.x."""
    return SPJQuery(
        relations=(
            RelationRef("s", "R", "R"),
            RelationRef("s", "S", "S"),
        ),
        projection=(attr("R", "k"), attr("R", "a"), attr("S", "x")),
        joins=(JoinCondition(attr("R", "k"), attr("S", "k")),),
    )


def probe(keys: frozenset) -> SPJQuery:
    return SPJQuery(
        relations=(RelationRef("s", "R", "R"),),
        projection=(attr("R", "k"), attr("R", "a")),
        selection=InPredicate(attr("R", "k"), keys),
    )


def armed_store(source) -> SelfMaintenanceStore:
    store = SelfMaintenanceStore(metrics=Metrics())
    store.register_view(view_query())
    store.seed_from_source(source)
    return store


def wire_answer(source, query):
    ref = query.relations[0]
    return execute(query, {ref.alias: source.catalog.table(ref.relation)})


class TestCoverage:
    def test_covered_probe_is_served(self):
        source = make_source()
        store = armed_store(source)
        hit = store.serve(source, probe(frozenset({1, 2})))
        assert isinstance(hit, LocalHit)
        assert hit.tier == "aux"
        assert dict(hit.table.items()) == dict(
            wire_answer(source, probe(frozenset({1, 2}))).items()
        )

    def test_uncovered_column_misses(self):
        """The view never references R.b, so a probe touching it must
        go remote — the replica does not store that column."""
        source = make_source()
        store = armed_store(source)
        wide = SPJQuery(
            relations=(RelationRef("s", "R", "R"),),
            projection=(attr("R", "k"), attr("R", "b")),
            selection=InPredicate(attr("R", "k"), frozenset({1})),
        )
        assert store.serve(source, wide) is None
        assert store.metrics.aux_misses == 1

    def test_join_queries_are_not_served(self):
        source = make_source()
        store = armed_store(source)
        assert store.serve(source, view_query()) is None

    def test_unregistered_relation_misses(self):
        source = make_source()
        store = SelfMaintenanceStore(metrics=Metrics())
        assert store.serve(source, probe(frozenset({1}))) is None


class TestLocalSync:
    def test_gap_deltas_are_folded_in(self):
        source = make_source()
        store = armed_store(source)
        source.commit(DataUpdate.insert(R, [(1, "new", 99)]))
        source.commit(DataUpdate.delete(R, [(2, "q", 20)]))
        hit = store.serve(source, probe(frozenset({1, 2})))
        assert dict(hit.table.items()) == dict(
            wire_answer(source, probe(frozenset({1, 2}))).items()
        )
        assert hit.rows == 2
        assert store.metrics.aux_applied_rows == 2

    def test_resync_is_incremental(self):
        source = make_source()
        store = armed_store(source)
        source.commit(DataUpdate.insert(R, [(1, "new", 99)]))
        first = store.serve(source, probe(frozenset({1})))
        assert first.rows == 1
        again = store.serve(source, probe(frozenset({1})))
        assert again.rows == 0  # gap already consumed

    def test_unrelated_relation_updates_are_skipped(self):
        source = make_source()
        store = armed_store(source)
        source.commit(DataUpdate.insert(S, [(2, "w")]))
        hit = store.serve(source, probe(frozenset({1})))
        assert hit is not None
        assert hit.rows == 0


class TestInvalidation:
    def test_sc_in_gap_drops_replica(self):
        source = make_source()
        store = armed_store(source)
        source.commit(DropAttribute("R", "b"))
        assert store.serve(source, probe(frozenset({1}))) is None
        assert store.metrics.aux_invalidations_sc == 1
        # Dropped for good until re-seeded, not resurrected silently.
        assert store.serve(source, probe(frozenset({1}))) is None

    def test_rename_in_gap_drops_replica(self):
        source = make_source()
        store = armed_store(source)
        source.commit(RenameRelation("S", "S2"))
        # R's replica shares the source log, so the SC in its gap
        # invalidates it too (the conservative Theorem 1 rule).
        assert store.serve(source, probe(frozenset({1}))) is None

    def test_widening_registration_drops_narrow_replica(self):
        source = make_source()
        store = armed_store(source)
        wider = SPJQuery(
            relations=(RelationRef("s", "R", "R"),),
            projection=(attr("R", "k"), attr("R", "b")),
        )
        store.register_view(wider)
        assert store.serve(source, probe(frozenset({1}))) is None
        # Re-seeding rebuilds at the wider requirement.
        store.seed_from_source(source)
        assert store.serve(source, probe(frozenset({1}))) is not None


class TestObservation:
    def test_full_scan_reseeds(self):
        source = make_source()
        store = armed_store(source)
        source.commit(DropAttribute("R", "b"))
        assert store.serve(source, probe(frozenset({1}))) is None
        scan = SPJQuery(
            relations=(RelationRef("s", "R", "R"),),
            projection=(attr("R", "k"), attr("R", "a")),
        )
        assert store.observe(source, scan, wire_answer(source, scan))
        hit = store.serve(source, probe(frozenset({1})))
        assert hit is not None
        assert dict(hit.table.items()) == dict(
            wire_answer(source, probe(frozenset({1}))).items()
        )

    def test_filtered_scan_is_not_observed(self):
        source = make_source()
        store = armed_store(source)
        filtered = probe(frozenset({1}))
        assert not store.observe(
            source, filtered, wire_answer(source, filtered)
        )

    def test_partial_projection_is_not_observed(self):
        """An answer missing a required column must not seed."""
        source = make_source()
        store = armed_store(source)
        narrow = SPJQuery(
            relations=(RelationRef("s", "R", "R"),),
            projection=(attr("R", "k"),),
        )
        assert not store.observe(
            source, narrow, wire_answer(source, narrow)
        )


class TestCheckpointPlumbing:
    def test_clear_keeps_registrations(self):
        source = make_source()
        store = armed_store(source)
        store.clear()
        assert len(store) == 0
        assert store.seed_from_source(source) == 2  # R and S rebuilt

    def test_export_restore_round_trip(self):
        source = make_source()
        store = armed_store(source)
        entries = store.export_entries()
        fresh = SelfMaintenanceStore(metrics=Metrics())
        fresh.register_view(view_query())
        assert fresh.restore_entries(entries) == len(entries)
        hit = fresh.serve(source, probe(frozenset({1, 2})))
        assert dict(hit.table.items()) == dict(
            wire_answer(source, probe(frozenset({1, 2}))).items()
        )

    def test_restore_skips_entries_narrower_than_requirement(self):
        source = make_source()
        store = armed_store(source)
        entries = store.export_entries()
        fresh = SelfMaintenanceStore()
        fresh.register_view(view_query())
        fresh.register_view(
            SPJQuery(
                relations=(RelationRef("s", "R", "R"),),
                projection=(attr("R", "k"), attr("R", "b")),
            )
        )
        restored = fresh.restore_entries(entries)
        # R's entry lacks ``b`` now, S's still covers.
        assert restored == 1
