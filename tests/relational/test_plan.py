"""Compiled plan cache and index-maintenance mechanics."""

from collections import Counter

import pytest

from repro.relational.errors import DataError, UnknownAttributeError
from repro.relational.executor import execute
from repro.relational.plan import PlanCache, _Join, compile_plan
from repro.relational.predicate import (
    AttrComparison,
    Comparison,
    InPredicate,
    attr,
)
from repro.relational.query import JoinCondition, RelationRef, SPJQuery
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.table import Table
from repro.relational.types import AttributeType
from repro.sim.metrics import Metrics
from tests.kernel_oracle import columnar_join_run, execute_naive

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


def plan_for(cache: PlanCache, query: SPJQuery, bound: dict):
    """The cached plan of ``query`` over the bound tables' schemas."""
    shape = query.prepared[0]
    return cache.plan_of(shape, *[bound[a].schema for a in shape.aliases])


def counts(cache: PlanCache) -> tuple[int, int, int, int]:
    """``(plans, hits, misses, evictions)`` of one cache."""
    metrics = cache.metrics
    return (
        len(cache._plans),
        metrics.plan_cache_hits,
        metrics.plan_cache_recompiles,
        metrics.plan_cache_evictions,
    )


class TestPlanCache:
    def test_same_query_and_schemas_reuse_the_compiled_plan(self):
        cache = PlanCache(Metrics())
        bound = tables()
        query = two_way_query()
        execute(query, bound, cache)
        first = dict(cache._plans)
        execute(query, bound, cache)
        assert counts(cache) == (1, 1, 1, 0)
        # identity, not just equality: the plan object is reused
        assert list(cache._plans.values()) == list(first.values())

    def test_equal_schemas_share_plans_across_table_objects(self):
        cache = PlanCache(Metrics())
        query = two_way_query()
        execute(query, tables(), cache)
        execute(query, tables(), cache)  # fresh Table objects, same schemas
        assert counts(cache) == (1, 1, 1, 0)

    def test_schema_change_compiles_a_fresh_plan(self):
        cache = PlanCache(Metrics())
        bound = tables()
        query = two_way_query()
        before = execute(query, bound, cache)
        assert sorted(before.rows()) == [("p", "x"), ("q", "y"), ("q", "y")]
        bound["S"].rename_attribute("c", "c2")
        # the old plan keys on the old schema object — a new one compiles
        query2 = SPJQuery(
            relations=query.relations,
            projection=(attr("R", "a"), attr("S", "c2")),
            joins=query.joins,
            selection=query.selection,
        )
        after = execute(query2, bound, cache)
        assert sorted(after.rows()) == sorted(before.rows())
        assert cache.metrics.plan_cache_recompiles == 2
        # a change the query survives: the very same query recompiles
        bound["R"].add_attribute(Attribute("d"))
        assert execute(query2, bound, cache) == after
        assert cache.metrics.plan_cache_recompiles == 3

    def test_stale_plan_never_served_after_schema_change(self):
        cache = PlanCache(Metrics())
        bound = tables()
        query = two_way_query()
        execute(query, bound, cache)
        bound["S"].drop_attribute("c")
        # same query object, changed schema: recompiles (cache miss) and
        # reports the dangling projection exactly like the naive oracle
        with pytest.raises(UnknownAttributeError):
            execute(query, bound, cache)
        assert cache.metrics.plan_cache_recompiles == 2
        with pytest.raises(UnknownAttributeError):
            execute_naive(query, bound)

    def test_lru_bound_evicts_oldest(self):
        cache = PlanCache(Metrics(), max_plans=2)
        bound = tables()
        for threshold in range(4):
            plan_for(cache, two_way_query(threshold), bound)
        assert counts(cache) == (2, 0, 4, 2)
        # oldest (threshold=0) was evicted: fetching recompiles
        plan_for(cache, two_way_query(0), bound)
        assert cache.metrics.plan_cache_recompiles == 5

    def test_counts_land_on_the_metrics_handed_in(self):
        metrics = Metrics()
        cache = PlanCache(metrics)
        execute(two_way_query(), tables(), cache)
        execute(two_way_query(), tables())  # a one-off: no cache, no count
        assert cache.metrics is metrics
        assert (metrics.plan_cache_hits, metrics.plan_cache_recompiles) == (
            0,
            1,
        )

    def test_max_plans_below_one_is_refused(self):
        for max_plans in (0, -2):
            with pytest.raises(ValueError, match="max_plans"):
                PlanCache(Metrics(), max_plans=max_plans)

    def test_in_lists_are_parameters_not_part_of_the_key(self):
        """Probes that differ only in their IN-list share one plan; a
        comparison constant is part of the shape and does not."""
        cache = PlanCache(Metrics(), max_plans=2)
        bound = {"R": Table(R, [(i % 50, "v") for i in range(200)])}

        def probe(values, threshold=0):
            return SPJQuery(
                relations=(RelationRef("s", "R", "R"),),
                projection=(attr("R", "a"),),
                selection=Comparison(attr("R", "k"), ">=", threshold)
                & InPredicate(attr("R", "k"), frozenset(values)),
            )

        plans = {id(plan_for(cache, probe({v}), bound)) for v in range(40)}
        assert len(plans) == 1
        assert counts(cache) == (1, 39, 1, 0)
        assert plan_for(cache, probe({1}, threshold=7), bound).shape == (
            probe({2, 3}, threshold=7).prepared[0]
        )
        assert cache.metrics.plan_cache_recompiles == 2

    def test_executing_an_unbound_shape_is_an_error(self):
        from repro.relational.errors import QueryError

        query = SPJQuery(
            relations=(RelationRef("s", "R", "R"),),
            projection=(attr("R", "a"),),
            selection=InPredicate(attr("R", "k"), frozenset({1})),
        )
        shape, parameters = query.prepared
        assert parameters == (frozenset({1}),)
        assert shape.bind(parameters) == query
        bound = {"R": Table(R, [(1, "p")])}
        for executor in (execute, execute_naive):
            with pytest.raises(QueryError, match="unbound parameter"):
                executor(shape, bound)

    def test_a_predicate_outside_the_node_set_is_refused(self):
        """The predicate nodes are a closed set: compiling anything else
        is a ``TypeError``, not a slow per-row fallback."""
        from repro.relational.predicate import Predicate

        class Unknown(Predicate):
            def references(self):
                return frozenset({attr("R", "k")})

            def lifted(self, values):
                return self

        query = SPJQuery(
            relations=(RelationRef("s", "R", "R"),),
            projection=(attr("R", "a"),),
            selection=Unknown(),
        )
        with pytest.raises(TypeError, match="not a predicate node"):
            compile_plan(query, {"R": R})

    def test_probe_path_used_for_small_in_lists(self):
        big = Table(R, [(i % 50, "v") for i in range(200)])
        bound = {"R": big}
        query = SPJQuery(
            relations=(RelationRef("s", "R", "R"),),
            projection=(attr("R", "k"), attr("R", "a")),
            selection=InPredicate(attr("R", "k"), frozenset({3})),
        )
        result = execute(query, bound)
        assert "k" in big._indexes  # the compiled scan probed the index
        assert set(result.rows()) == {(3, "v")}
        assert result.count((3, "v")) == 4


class TestPlacement:
    """A plan applies every multi-alias conjunct after its last join, as
    ``execute_naive`` does; a probe sweep applies it at the stage that
    completes it.  The two differ only for a dangling reference that a
    later join decides never to read."""

    T1 = RelationSchema.of("T1", [("A", AttributeType.INT), "B"])
    T2 = RelationSchema.of("T2", [("A", AttributeType.INT), "C"])
    T3 = RelationSchema.of("T3", ["C", "D"])

    QUERY = SPJQuery(
        relations=(
            RelationRef("s", "T1", "T1"),
            RelationRef("s", "T2", "T2"),
            RelationRef("s", "T3", "T3"),
        ),
        projection=(attr("T1", "B"), attr("T3", "D")),
        joins=(
            JoinCondition(attr("T1", "A"), attr("T2", "A")),
            JoinCondition(attr("T2", "C"), attr("T3", "C")),
        ),
        # T1 has no X: the term dangles once T1 and T2 are joined
        selection=AttrComparison(attr("T1", "X"), "=", attr("T2", "A")),
    )

    def tables(self, third):
        return {
            "T1": Table(self.T1, [(1, "b")]),
            "T2": Table(self.T2, [(1, "c")]),
            "T3": Table(self.T3, third),
        }

    def test_a_later_empty_join_reads_no_dangling_reference(self):
        bound = self.tables([])
        assert list(execute(self.QUERY, bound).items()) == []
        assert list(execute_naive(self.QUERY, bound).items()) == []

    def test_a_row_the_whole_join_keeps_raises(self):
        bound = self.tables([("c", "d")])
        with pytest.raises(UnknownAttributeError):
            execute(self.QUERY, bound)
        with pytest.raises(UnknownAttributeError):
            execute_naive(self.QUERY, bound)


class TestJoinBuild:
    """One pinned build side: keys held by 1, 2 and 3 distinct rows,
    counts above 1, a NULL key, and composite keys with a NULL
    component.  The shipped build (a lone ``(row, count)`` pair as its
    own bucket, a list of pairs for a repeated key) must equal the naive
    kernel in bag and the columnar build it replaced in row order."""

    L = RelationSchema.of("L", [("A", AttributeType.INT), "B", "C"])
    M = RelationSchema.of("M", [("A", AttributeType.INT), "X"])
    N = RelationSchema.of("N", ["B", "C", "Y"])

    QUERY = SPJQuery(
        relations=(
            RelationRef("s", "L", "L"),
            RelationRef("s", "M", "M"),
            RelationRef("s", "N", "N"),
        ),
        projection=(attr("L", "A"), attr("M", "X"), attr("N", "Y")),
        joins=(
            JoinCondition(attr("L", "A"), attr("M", "A")),
            JoinCondition(attr("L", "B"), attr("N", "B")),
            JoinCondition(attr("N", "C"), attr("L", "C")),
        ),
    )

    def tables(self):
        left = Table(self.L)
        for row, count in [
            ((1, "b1", "c1"), 2),
            ((2, "b2", "c2"), 1),
            ((3, "b3", "c3"), 3),
            ((3, "b1", "c1"), 1),
            ((None, "b1", "c1"), 2),
            ((1, "b1", None), 1),
            ((2, None, "c2"), 1),
        ]:
            left.insert(row, count)
        middle = Table(self.M)
        for row, count in [
            ((3, "x3a"), 2),
            ((1, "x1"), 2),
            ((2, "x2a"), 1),
            ((3, "x3b"), 1),
            ((None, "x0"), 4),
            ((2, "x2b"), 3),
            ((3, "x3c"), 2),
        ]:
            middle.insert(row, count)
        right = Table(self.N)
        for row, count in [
            (("b2", "c2", "y2a"), 1),
            (("b1", "c1", "y1"), 3),
            (("b3", "c3", "y3a"), 2),
            (("b2", "c2", "y2b"), 2),
            (("b1", None, "y0"), 5),
            ((None, "c2", "y0"), 5),
            (("b3", "c3", "y3b"), 1),
            (("b3", "c3", "y3c"), 4),
        ]:
            right.insert(row, count)
        return {"L": left, "M": middle, "N": right}

    def test_a_plan_equals_the_naive_kernel_and_the_columnar_order(
        self, monkeypatch
    ):
        bound = self.tables()
        result = execute(self.QUERY, bound)
        assert result == execute_naive(self.QUERY, bound)
        assert len(result) == 2 * 2 * 3 + 1 * 4 * 3 + 3 * 5 * 7 + 1 * 5 * 3
        monkeypatch.setattr(_Join, "run", columnar_join_run)
        columnar = execute(self.QUERY, bound)
        assert list(result.items()) == list(columnar.items())


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
