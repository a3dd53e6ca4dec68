"""SnapshotCache: versioned hits, local patching, SC invalidation."""

import pytest

from repro.cache import SnapshotCache, normalized_query_key
from repro.relational.executor import execute
from repro.relational.predicate import InPredicate, attr
from repro.relational.query import RelationRef, SPJQuery
from repro.relational.schema import RelationSchema
from repro.relational.types import AttributeType
from repro.sim.metrics import Metrics
from repro.sources.messages import DataUpdate, DropAttribute
from repro.sources.replica import LocalHit
from repro.sources.source import DataSource

R = RelationSchema.of("R", [("k", AttributeType.INT), "a"])
T = RelationSchema.of("T", [("j", AttributeType.INT), "y"])


def make_source() -> DataSource:
    source = DataSource("s")
    source.create_relation(R, [(1, "p"), (2, "q"), (3, "r")])
    source.create_relation(T, [(1, "z")])
    return source


def probe(keys: frozenset) -> SPJQuery:
    return SPJQuery(
        relations=(RelationRef("s", "R", "R"),),
        projection=(attr("R", "k"), attr("R", "a")),
        selection=InPredicate(attr("R", "k"), keys),
    )


def evaluate(source: DataSource, query: SPJQuery):
    ref = query.relations[0]
    return execute(query, {ref.alias: source.catalog.table(ref.relation)})


def counted(table) -> dict:
    return dict(table.items())


class TestVersioning:
    def test_commit_version_counts_log(self):
        source = make_source()
        assert source.commit_version == 0  # initial load is not logged
        source.commit(DataUpdate.insert(R, [(4, "s")]))
        assert source.commit_version == 1
        assert [m.seqno for m in source.updates_since(0)] == [1]
        assert source.updates_since(1) == []

    def test_exact_version_hit(self):
        source, cache = make_source(), SnapshotCache()
        query = probe(frozenset({1, 2}))
        answer = evaluate(source, query)
        cache.store(source, query, answer)
        hit = cache.serve(source, query)
        assert isinstance(hit, LocalHit)
        assert (hit.tier, hit.rows) == ("cache", 0)
        assert counted(hit.table) == counted(answer)

    def test_miss_on_unknown_key(self):
        source, cache = make_source(), SnapshotCache()
        assert cache.serve(source, probe(frozenset({1}))) is None

    def test_key_is_normalized_query_text(self):
        query = probe(frozenset({2, 1}))
        same = probe(frozenset({1, 2}))
        assert normalized_query_key(query) == normalized_query_key(same)


class TestPatching:
    def test_du_gap_is_patched_to_current_state(self):
        source, cache = make_source(), SnapshotCache()
        query = probe(frozenset({1, 2, 5}))
        cache.store(source, query, evaluate(source, query))
        source.commit(DataUpdate.insert(R, [(5, "new"), (9, "other")]))
        source.commit(DataUpdate.delete(R, [(2, "q")]))
        hit = cache.serve(source, query)
        assert hit is not None and hit.rows > 0
        assert counted(hit.table) == counted(evaluate(source, query))

    def test_patched_entry_is_restamped(self):
        source, cache = make_source(), SnapshotCache()
        query = probe(frozenset({1}))
        cache.store(source, query, evaluate(source, query))
        source.commit(DataUpdate.insert(R, [(1, "dup")]))
        first = cache.serve(source, query)
        assert first is not None and first.rows > 0
        second = cache.serve(source, query)
        assert second is not None and second.rows == 0
        assert counted(second.table) == counted(first.table)

    def test_gap_du_on_other_relation_is_free(self):
        source, cache = make_source(), SnapshotCache()
        query = probe(frozenset({1}))
        cache.store(source, query, evaluate(source, query))
        source.commit(DataUpdate.insert(T, [(7, "w")]))
        metrics = Metrics()
        cache.metrics = metrics
        hit = cache.serve(source, query)
        assert hit is not None and hit.rows == 0
        assert metrics.patched_answers == 0
        assert counted(hit.table) == counted(evaluate(source, query))

    def test_duplicate_counts_survive_patching(self):
        source, cache = make_source(), SnapshotCache()
        query = probe(frozenset({3}))
        cache.store(source, query, evaluate(source, query))
        source.commit(DataUpdate.insert(R, [(3, "r"), (3, "r")]))
        hit = cache.serve(source, query)
        assert hit is not None
        assert counted(hit.table) == {(3, "r"): 3}

    def test_served_table_is_a_copy(self):
        source, cache = make_source(), SnapshotCache()
        query = probe(frozenset({1}))
        cache.store(source, query, evaluate(source, query))
        hit = cache.serve(source, query)
        hit.table.insert((99, "junk"))
        again = cache.serve(source, query)
        assert (99, "junk") not in again.table


class TestSchemaChangeInvalidation:
    def test_sc_in_gap_drops_entry(self):
        source, cache = make_source(), SnapshotCache(metrics=Metrics())
        query = probe(frozenset({1}))
        cache.store(source, query, evaluate(source, query))
        source.commit(DropAttribute("T", "y"))  # any SC, any relation
        assert cache.serve(source, query) is None
        assert cache.metrics.cache_invalidations_sc == 1
        assert len(cache) == 0
        # The slot is reusable after a fresh store.
        cache.store(source, query, evaluate(source, query))
        assert cache.serve(source, query) is not None


class TestPolicy:
    def test_multi_relation_queries_are_not_cacheable(self):
        source, cache = make_source(), SnapshotCache(metrics=Metrics())
        join = SPJQuery(
            relations=(
                RelationRef("s", "R", "R"),
                RelationRef("s", "T", "T"),
            ),
            projection=(attr("R", "a"), attr("T", "y")),
        )
        assert not SnapshotCache.cacheable(join)
        cache.store(source, join, evaluate(source, probe(frozenset({1}))))
        assert len(cache) == 0
        assert cache.serve(source, join) is None
        # Uncacheable traffic is invisible to the hit/miss counters.
        assert cache.metrics.cache_misses == 0

    def test_eviction_keeps_most_recent(self):
        source, cache = make_source(), SnapshotCache(max_entries=2)
        queries = [probe(frozenset({key})) for key in (1, 2, 3)]
        for query in queries:
            cache.store(source, query, evaluate(source, query))
        assert len(cache) == 2
        assert cache.serve(source, queries[0]) is None  # evicted
        assert cache.serve(source, queries[2]) is not None

    @pytest.mark.parametrize("bound", [0, -3])
    def test_non_positive_bound_is_rejected(self, bound):
        with pytest.raises(ValueError, match="max_entries"):
            SnapshotCache(max_entries=bound)

    def test_hot_key_survives_churn_of_cold_keys(self):
        """LRU regression: an exact hit must refresh recency.  A hot
        key served on every round (with no gap to patch) used to stay
        at its insertion slot and get evicted FIFO-style once enough
        cold keys churned past ``max_entries``."""
        source, cache = make_source(), SnapshotCache(max_entries=2)
        hot = probe(frozenset({1}))
        cache.store(source, hot, evaluate(source, hot))
        for cold_key in (2, 3, 1, 2, 3, 2, 3):
            # Exact hit (same version, empty gap) before each insert.
            assert cache.serve(source, hot) is not None
            cold = probe(frozenset({cold_key, 99}))
            cache.store(source, cold, evaluate(source, cold))
        assert cache.serve(source, hot) is not None

    def test_metrics_counters(self):
        metrics = Metrics()
        source, cache = make_source(), SnapshotCache(metrics=metrics)
        query = probe(frozenset({1}))
        assert cache.serve(source, query) is None
        cache.store(source, query, evaluate(source, query))
        cache.serve(source, query)
        source.commit(DataUpdate.insert(R, [(1, "more")]))
        cache.serve(source, query)
        assert metrics.cache_misses == 1
        assert metrics.cache_hits == 2
        assert metrics.saved_round_trips == 2
        assert metrics.patched_answers == 1
