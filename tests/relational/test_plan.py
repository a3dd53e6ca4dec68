"""Compiled plan cache and index-maintenance mechanics."""

from collections import Counter

import pytest

from repro.relational.errors import DataError
from repro.relational.plan import (
    PLAN_CACHE,
    PlanCache,
    compile_plan,
    execute_compiled,
    plan_cache_stats,
)
from repro.relational.predicate import Comparison, InPredicate, attr
from repro.relational.query import JoinCondition, RelationRef, SPJQuery
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.table import Table
from repro.relational.types import AttributeType

R = RelationSchema.of("R", [("k", AttributeType.INT), "a"])
S = RelationSchema.of("S", [("k", AttributeType.INT), "c"])


def two_way_query(threshold: int = 0) -> SPJQuery:
    return SPJQuery(
        relations=(RelationRef("s", "R", "R"), RelationRef("s", "S", "S")),
        projection=(attr("R", "a"), attr("S", "c")),
        joins=(JoinCondition(attr("R", "k"), attr("S", "k")),),
        selection=Comparison(attr("R", "k"), ">=", threshold),
    )


def tables():
    return {
        "R": Table(R, [(1, "p"), (2, "q"), (2, "q")]),
        "S": Table(S, [(1, "x"), (2, "y")]),
    }


class TestPlanCache:
    def test_same_query_and_schemas_reuse_the_compiled_plan(self):
        PLAN_CACHE.clear()
        bound = tables()
        query = two_way_query()
        before = plan_cache_stats()
        execute_compiled(query, bound)
        first = dict(PLAN_CACHE._plans)
        execute_compiled(query, bound)
        stats = plan_cache_stats()
        assert stats["plans"] == 1
        assert stats["hits"] == before["hits"] + 1
        # identity, not just equality: the plan object is reused
        assert list(PLAN_CACHE._plans.values()) == list(first.values())

    def test_equal_schemas_share_plans_across_table_objects(self):
        PLAN_CACHE.clear()
        query = two_way_query()
        before = plan_cache_stats()
        execute_compiled(query, tables())
        execute_compiled(query, tables())  # fresh Table objects, same schemas
        stats = plan_cache_stats()
        assert stats["plans"] == 1
        assert stats["hits"] == before["hits"] + 1
        assert stats["misses"] == before["misses"] + 1

    def test_schema_change_compiles_a_fresh_plan(self):
        PLAN_CACHE.clear()
        bound = tables()
        query = two_way_query()
        before = execute_compiled(query, bound)
        assert sorted(before.rows()) == [("p", "x"), ("q", "y"), ("q", "y")]
        misses_before = plan_cache_stats()["misses"]
        bound["S"].rename_attribute("c", "c2")
        # the old plan keys on the old schema object — a new one compiles
        query2 = SPJQuery(
            relations=query.relations,
            projection=(attr("R", "a"), attr("S", "c2")),
            joins=query.joins,
            selection=query.selection,
        )
        after = execute_compiled(query2, bound)
        assert sorted(after.rows()) == sorted(before.rows())
        assert plan_cache_stats()["misses"] == misses_before + 1
        # a change the query survives: the very same query recompiles
        bound["R"].add_attribute(Attribute("d"))
        assert execute_compiled(query2, bound) == after
        assert plan_cache_stats()["misses"] == misses_before + 2

    def test_stale_plan_never_served_after_schema_change(self):
        PLAN_CACHE.clear()
        bound = tables()
        query = two_way_query()
        execute_compiled(query, bound)
        bound["S"].drop_attribute("c")
        # same query object, changed schema: recompiles (cache miss) and
        # reports the dangling projection exactly like the naive oracle
        from repro.relational.errors import UnknownAttributeError
        from repro.relational.executor import execute_naive

        with pytest.raises(UnknownAttributeError):
            execute_compiled(query, bound)
        with pytest.raises(UnknownAttributeError):
            execute_naive(query, bound)

    def test_lru_bound_evicts_oldest(self):
        cache = PlanCache(max_plans=2)
        bound = tables()
        schemas = {alias: table.schema for alias, table in bound.items()}
        for threshold in range(4):
            cache.plan_for(two_way_query(threshold), bound)
        assert len(cache) == 2
        stats = cache.stats()
        assert stats["evictions"] == 2
        assert stats["misses"] == 4
        # oldest (threshold=0) was evicted: fetching recompiles
        cache.plan_for(two_way_query(0), bound)
        assert cache.stats()["misses"] == 5
        del schemas

    def test_max_plans_below_one_is_refused(self):
        for max_plans in (0, -2):
            with pytest.raises(ValueError, match="max_plans"):
                PlanCache(max_plans=max_plans)

    def test_in_lists_are_parameters_not_part_of_the_key(self):
        """Probes that differ only in their IN-list share one plan; a
        comparison constant is part of the shape and does not."""
        cache = PlanCache(max_plans=2)
        bound = {"R": Table(R, [(i % 50, "v") for i in range(200)])}

        def probe(values, threshold=0):
            return SPJQuery(
                relations=(RelationRef("s", "R", "R"),),
                projection=(attr("R", "a"),),
                selection=Comparison(attr("R", "k"), ">=", threshold)
                & InPredicate(attr("R", "k"), frozenset(values)),
            )

        plans = {id(cache.plan_for(probe({v}), bound)) for v in range(40)}
        assert len(plans) == 1
        assert cache.stats() == {
            "plans": 1, "hits": 39, "misses": 1, "evictions": 0
        }
        assert cache.plan_for(probe({1}, threshold=7), bound).shape == (
            probe({2, 3}, threshold=7).prepared[0]
        )
        assert cache.stats()["misses"] == 2

    def test_executing_an_unbound_shape_is_an_error(self):
        from repro.relational.errors import QueryError
        from repro.relational.executor import execute_naive

        query = SPJQuery(
            relations=(RelationRef("s", "R", "R"),),
            projection=(attr("R", "a"),),
            selection=InPredicate(attr("R", "k"), frozenset({1})),
        )
        shape, parameters = query.prepared
        assert parameters == (frozenset({1}),)
        assert shape.bind(parameters) == query
        bound = {"R": Table(R, [(1, "p")])}
        for executor in (execute_compiled, execute_naive):
            with pytest.raises(QueryError, match="unbound parameter"):
                executor(shape, bound)

    def test_probe_path_used_for_small_in_lists(self):
        PLAN_CACHE.clear()
        big = Table(R, [(i % 50, "v") for i in range(200)])
        bound = {"R": big}
        query = SPJQuery(
            relations=(RelationRef("s", "R", "R"),),
            projection=(attr("R", "k"), attr("R", "a")),
            selection=InPredicate(attr("R", "k"), frozenset({3})),
        )
        result = execute_compiled(query, bound)
        assert "k" in big._indexes  # the compiled scan probed the index
        assert set(result.rows()) == {(3, "v")}
        assert result.count((3, "v")) == 4


class TestIndexMaintenance:
    def test_mutations_do_not_rebind_attribute_positions(self, monkeypatch):
        """insert/delete maintain indexes via the position stored at
        build time — ``schema.index_of`` must not run per row."""
        table = Table(R, [(i, "v") for i in range(10)])
        list(table.probe("k", {1}))  # build the index (one index_of)
        calls = []
        original = RelationSchema.index_of

        def counting(self, name):
            calls.append(name)
            return original(self, name)

        monkeypatch.setattr(RelationSchema, "index_of", counting)
        for i in range(10, 60):
            table.insert((i, "w"))
        for i in range(10, 30):
            table.delete((i, "w"))
        assert calls == []  # zero per-row resolutions
        assert {row for row, _count in table.probe("k", {42})} == {
            (42, "w")
        }

    def test_from_counts_adopts_counter(self):
        counts = Counter({(1, "p"): 2, (2, "q"): 1})
        table = Table.from_counts(R, counts)
        assert table.count((1, "p")) == 2
        assert len(table) == 3
        # the probe index built on an adopted bag answers correctly
        assert {row for row, _c in table.probe("k", {1})} == {(1, "p")}

    def test_from_counts_wraps_plain_dicts(self):
        table = Table.from_counts(R, {(5, "z"): 3})
        table.insert((5, "z"))  # Counter semantics must survive adoption
        assert table.count((5, "z")) == 4
        with pytest.raises(DataError):
            table.delete((5, "z"), 9)
