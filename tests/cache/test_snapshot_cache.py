"""SnapshotCache: versioned hits, local patching, SC invalidation."""

import pytest

from repro.cache import SnapshotCache
from repro.relational.executor import execute
from repro.relational.predicate import InPredicate, attr
from repro.relational.query import RelationRef, SPJQuery
from repro.relational.schema import RelationSchema
from repro.relational.types import AttributeType
from repro.sim.metrics import Metrics
from repro.sources.messages import DataUpdate, DropAttribute
from repro.sources.replica import LocalHit
from repro.sources.source import DataSource
from tests.bag_oracle import normalized_query_key
from tests.builders import free_cost_model

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
        assert query.prepared == same.prepared
        source, cache = make_source(), SnapshotCache()
        cache.store(source, query, evaluate(source, query))
        assert cache.serve(source, same) is not None


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

    def test_served_tables_are_shared_and_never_mutated(self):
        """A hit hands out the entry's own table and ``store`` keeps the
        answer it is given: no copy either way.  So no stack may mutate
        a table the cache holds — run the cache with the aux store,
        serial and parallel, with those tables' mutators raising."""
        from repro.core.strategies import PESSIMISTIC
        from repro.experiments.testbed import build_testbed
        from repro.relational.table import Table

        source, cache = make_source(), SnapshotCache()
        query = probe(frozenset({1}))
        answer = evaluate(source, query)
        cache.store(source, query, answer)
        assert cache.serve(source, query).table is answer

        held: dict[int, Table] = {}
        mutators = (
            "insert", "delete", "update", "apply_delta", "clear",
            "rename_attribute", "drop_attribute", "add_attribute",
        )
        originals = {name: getattr(Table, name) for name in mutators}
        store, serve = SnapshotCache.store, SnapshotCache.serve

        def guarded(name):
            def mutator(table, *arguments, **keywords):
                if id(table) in held:
                    raise AssertionError(f"{name} on a cached answer")
                return originals[name](table, *arguments, **keywords)

            return mutator

        def holding_store(self, source, query, answer, version=None):
            held[id(answer)] = answer
            return store(self, source, query, answer, version)

        def holding_serve(self, source, query):
            hit = serve(self, source, query)
            if hit is not None:
                held[id(hit.table)] = hit.table
            return hit

        try:
            for name in mutators:
                setattr(Table, name, guarded(name))
            SnapshotCache.store = holding_store
            SnapshotCache.serve = holding_serve
            for workers in (None, 3):
                testbed = build_testbed(
                    PESSIMISTIC,
                    tuples_per_relation=30,
                    parallel_workers=workers,
                    snapshot_cache=True,
                )
                # the aux store covers src1 only, so the cache serves
                # the other sources' probes
                aux = testbed.manager.install_self_maintenance()
                aux.seed_from_source(testbed.engine.sources["src1"])
                testbed.engine.schedule_workload(
                    testbed.random_du_workload(
                        40, start=0.0, interval=0.01, seed=7, key_domain=8
                    )
                )
                testbed.run()
                assert testbed.metrics.cache_hits > 0
                assert testbed.metrics.aux_hits > 0
                assert testbed.check_consistency()
        finally:
            for name, original in originals.items():
                setattr(Table, name, original)
            SnapshotCache.store, SnapshotCache.serve = store, serve


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


class TestRetriedRollForward:
    def test_a_retried_probe_folds_each_gap_delta_exactly_once(self):
        """A transient fault, a commit in the backoff window, a retry:
        the retried answer holds that commit and is stamped with it, so
        the next hit folds exactly the deltas committed after it — each
        once — and ends stamped at ``commit_version``."""
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import FaultPlan, TransientFault
        from repro.faults.retry import RetryPolicy
        from repro.sim.effects import SourceQuery
        from repro.sim.engine import SimEngine

        engine = SimEngine(free_cost_model())
        source = engine.add_source(make_source())
        cache = engine.install_snapshot_cache()
        engine.install_faults(
            FaultInjector(FaultPlan(transients=(TransientFault("s", 0),))),
            RetryPolicy(
                max_attempts=3, base_backoff=0.1, jitter=0.0, deadline=0.0
            ),
        )
        folded = []
        fold = cache._fold
        cache._fold = lambda entry, query, deltas: (
            folded.extend(deltas) or fold(entry, query, deltas)
        )
        during = DataUpdate.insert(R, [(1, "during")])
        engine.schedule(0.05, lambda: source.commit(during))
        query = probe(frozenset({1, 2}))
        effect = SourceQuery("s", query, cacheable=True)

        first = engine.perform(effect)
        assert engine.metrics.retries == 1
        assert (1, "during") in first.table
        (entry,) = cache._entries.values()
        assert entry.version == source.commit_version == 1

        gap = [
            DataUpdate.insert(R, [(1, "after")]),
            DataUpdate.insert(T, [(1, "other relation")]),
            DataUpdate.delete(R, [(2, "q")]),
        ]
        for update in gap:
            source.commit(update)
        for _serve in range(2):
            hit = engine.perform(effect)
            assert counted(hit.table) == counted(evaluate(source, query))
            assert entry.version == source.commit_version == 4
        assert [id(delta) for delta in folded] == [
            id(gap[0].delta),
            id(gap[2].delta),
        ]
        assert engine.metrics.cache_hits == 2
        assert engine.metrics.source_round_trips == 2  # fault + retry
