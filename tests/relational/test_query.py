"""SPJ query AST: validation, introspection, structural rewrites."""

import os
import pickle
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import pytest

from repro.maintenance.vs import ViewSynchronizationError, ViewSynchronizer
from repro.relational.errors import QueryError, UnknownAttributeError
from repro.relational.executor import execute
from repro.relational.predicate import (
    Comparison,
    InPredicate,
    attr,
    conjunction,
)
from repro.relational.query import JoinCondition, RelationRef, SPJQuery
from repro.relational.schema import RelationSchema
from repro.relational.table import Table
from repro.relational.types import AttributeType
from repro.sources.messages import DropAttribute
from repro.views.definition import ViewDefinition
from tests.builders import with_extra_selection, with_relation_replaced


def two_way() -> SPJQuery:
    return SPJQuery(
        relations=(
            RelationRef("s1", "R", "R"),
            RelationRef("s2", "T", "T"),
        ),
        projection=(attr("R", "a"), attr("T", "x")),
        joins=(JoinCondition(attr("R", "k"), attr("T", "k")),),
        selection=Comparison(attr("R", "a"), ">", 0),
    )


def _dropped(query, source, relation, attribute) -> SPJQuery:
    """``query`` as view synchronization rewrites it when ``source``
    drops ``relation.attribute`` (no MKB replacement)."""
    change = DropAttribute(relation, attribute)
    view = ViewDefinition("V", query)
    synchronized = ViewSynchronizer().synchronize_change(view, source, change)
    return synchronized.definition.query


class TestValidation:
    def test_needs_relations(self):
        with pytest.raises(QueryError):
            SPJQuery(relations=(), projection=(attr("R", "a"),))

    def test_duplicate_alias_rejected(self):
        with pytest.raises(QueryError):
            SPJQuery(
                relations=(
                    RelationRef("s", "R", "X"),
                    RelationRef("s", "T", "X"),
                ),
                projection=(attr("X", "a"),),
            )

    def test_unknown_alias_in_projection_rejected(self):
        with pytest.raises(QueryError):
            SPJQuery(
                relations=(RelationRef("s", "R", "R"),),
                projection=(attr("Z", "a"),),
            )

    def test_join_requires_qualified_refs(self):
        with pytest.raises(QueryError):
            JoinCondition(attr("a"), attr("T", "k"))


class TestIntrospection:
    def test_aliases(self):
        assert two_way().aliases == ("R", "T")

    def test_sources(self):
        assert two_way().sources() == frozenset({"s1", "s2"})

    def test_relation_ref_unknown_raises(self):
        with pytest.raises(QueryError):
            two_way().relation_ref("Z")

    def test_all_attribute_refs(self):
        refs = two_way().all_attribute_refs()
        assert attr("R", "k") in refs
        assert attr("T", "x") in refs
        assert attr("R", "a") in refs

    def test_references_relation(self):
        query = two_way()
        assert query.references_relation("s1", "R")
        assert not query.references_relation("s1", "T")
        assert not query.references_relation("s9", "R")

    def test_references_attribute(self):
        query = two_way()
        assert query.references_attribute("s1", "R", "a")
        assert query.references_attribute("s1", "R", "k")  # via the join
        assert not query.references_attribute("s1", "R", "zz")
        assert not query.references_attribute("s2", "R", "a")

    def test_join_condition_helpers(self):
        join = two_way().joins[0]
        assert join.touches("R") and join.touches("T")
        assert join.attr_of("R") == attr("R", "k")
        assert join.other_side("R") == attr("T", "k")
        with pytest.raises(QueryError):
            join.attr_of("Z")
        with pytest.raises(QueryError):
            join.other_side("Z")


class TestRewrites:
    def test_with_relation_renamed(self):
        renamed = two_way().with_relation_renamed("s1", "R", "R2")
        assert renamed.relation_ref("R").relation == "R2"
        # alias unchanged: attribute refs survive
        assert attr("R", "a") in renamed.projection

    def test_with_relation_replaced_keeps_alias(self):
        replacement = RelationRef("s3", "NewR", "R")
        replaced = with_relation_replaced(two_way(), "R", replacement)
        assert replaced.relation_ref("R").source == "s3"

    def test_with_relation_replaced_alias_mismatch_rejected(self):
        with pytest.raises(QueryError):
            with_relation_replaced(
                two_way(), "R", RelationRef("s3", "NewR", "Other")
            )

    def test_with_attribute_renamed(self):
        renamed = two_way().with_attribute_renamed("R", "a", "a2")
        assert attr("R", "a2") in renamed.projection
        assert renamed.selection == Comparison(attr("R", "a2"), ">", 0)

    def test_without_projection_attribute(self):
        # View synchronization prunes a dropped, non-join attribute.
        pruned = _dropped(two_way(), "s2", "T", "x")
        assert pruned.projection == (attr("R", "a"),)

    def test_without_last_projection_attribute_rejected(self):
        query = SPJQuery(
            relations=(RelationRef("s", "R", "R"),),
            projection=(attr("R", "a"),),
        )
        with pytest.raises(ViewSynchronizationError):
            _dropped(query, "s", "R", "a")

    def test_without_relation(self):
        pruned = two_way().without_relation("T")
        assert pruned.aliases == ("R",)
        assert pruned.joins == ()
        assert pruned.projection == (attr("R", "a"),)
        # selection touching only R survives
        assert pruned.selection == Comparison(attr("R", "a"), ">", 0)

    def test_without_relation_prunes_its_selection(self):
        query = with_extra_selection(
            two_way(), Comparison(attr("T", "x"), "=", "q")
        )
        pruned = query.without_relation("T")
        assert pruned.selection == Comparison(attr("R", "a"), ">", 0)

    def test_without_only_relation_rejected(self):
        query = SPJQuery(
            relations=(RelationRef("s", "R", "R"),),
            projection=(attr("R", "a"),),
        )
        with pytest.raises(QueryError):
            query.without_relation("R")

    def test_without_relation_emptying_projection_rejected(self):
        query = SPJQuery(
            relations=(
                RelationRef("s1", "R", "R"),
                RelationRef("s2", "T", "T"),
            ),
            projection=(attr("T", "x"),),
            joins=(JoinCondition(attr("R", "k"), attr("T", "k")),),
        )
        with pytest.raises(QueryError):
            query.without_relation("T")

    def test_with_extra_selection(self):
        query = with_extra_selection(
            two_way(), Comparison(attr("T", "x"), "=", "q")
        )
        assert len(query.selection.children) == 2  # type: ignore[attr-defined]

    def test_substituted(self):
        substituted = two_way().substituted(
            {attr("R", "a"): attr("R", "alpha")}
        )
        assert attr("R", "alpha") in substituted.projection


class TestValidationAgainstSchemas:
    """Every attribute reference must resolve in the schema bound to its
    alias: the executor checks it as it evaluates."""

    @staticmethod
    def bound(**schemas) -> dict[str, Table]:
        return {alias: Table(schema) for alias, schema in schemas.items()}

    def test_valid(self):
        tables = self.bound(
            R=RelationSchema.of("R", ["a", "k"]),
            T=RelationSchema.of("T", ["x", "k"]),
        )
        assert len(execute(two_way(), tables)) == 0  # no raise

    def test_missing_attribute(self):
        tables = self.bound(
            R=RelationSchema.of("R", ["a"]),  # no k
            T=RelationSchema.of("T", ["x", "k"]),
        )
        with pytest.raises(UnknownAttributeError):
            execute(two_way(), tables)

    def test_missing_alias_binding(self):
        with pytest.raises(QueryError):
            execute(two_way(), {})


class TestRendering:
    def test_sql(self):
        sql = two_way().sql()
        assert sql == (
            "SELECT R.a, T.x FROM R, T WHERE R.k = T.k AND R.a > 0"
        )

    def test_sql_with_alias(self):
        query = SPJQuery(
            relations=(RelationRef("s", "Store", "S"),),
            projection=(attr("S", "a"),),
        )
        assert "Store S" in query.sql()

    def test_sql_no_where(self):
        query = SPJQuery(
            relations=(RelationRef("s", "R", "R"),),
            projection=(attr("R", "a"),),
        )
        assert "WHERE" not in query.sql()


def probing(values) -> SPJQuery:
    """``two_way`` restricted by an IN-list (a maintenance probe's form)."""
    return with_extra_selection(
        two_way(), InPredicate(attr("R", "k"), frozenset(values))
    )


SCHEMAS = {
    "R": RelationSchema.of("R", [("a", AttributeType.INT), "k"]),
    "T": RelationSchema.of("T", ["x", "k"]),
}


def _memoise(query: SPJQuery) -> None:
    """Touch everything a query or a schema remembers."""
    hash(query)
    query.aliases
    query.all_attribute_refs()
    hash(query.prepared[0])
    query.derived(lambda query, tag: object(), "anything")
    for schema in SCHEMAS.values():
        hash(schema)


class TestMemos:
    """Aliases, attribute refs, hash and shape are computed once per
    object — beside the fields, never among them, never shipped."""

    def test_memos_are_not_fields(self):
        cold, warm = probing({"u", "v"}), probing({"u", "v"})
        text, shown = warm.sql(), repr(warm)
        _memoise(warm)
        assert warm == cold and hash(warm) == hash(cold)
        assert warm.sql() == text and repr(warm) == shown == repr(cold)
        assert warm.aliases == cold.aliases == ("R", "T")
        assert warm.all_attribute_refs() == cold.all_attribute_refs()
        # replace() starts afresh: nothing derived is carried over
        narrowed = replace(warm, projection=(attr("R", "a"),))
        assert not {"_hash", "prepared", "_derived"} & set(vars(narrowed))
        assert narrowed.all_attribute_refs() < warm.all_attribute_refs()
        assert hash(narrowed) != hash(warm)
        schema = SCHEMAS["R"]
        renamed = replace(schema, name="Q")
        assert set(vars(renamed)) == {"name", "attributes"}
        assert hash(renamed) == hash(RelationSchema("Q", schema.attributes))

    def test_shape_lifts_in_lists_and_nothing_else(self):
        first, second = probing({"u"}), probing({"v", "w"})
        assert first.prepared[0] == second.prepared[0]
        assert first.prepared[1] == (frozenset({"u"}),)
        assert "R.a > 0 AND R.k IN (?0)" in first.prepared[0].sql()
        # a query without IN-lists is its own shape, constants included
        assert two_way().prepared == (two_way(), ())
        assert replace(
            two_way(), selection=Comparison(attr("R", "a"), ">", 1)
        ).prepared[0] != two_way().prepared[0]

    def test_bound_queries_equal_constructed_ones(self):
        shape, parameters = probing({"u"}).prepared
        bound = shape.bind((frozenset({"v", "w"}),))
        built = probing({"v", "w"})
        assert bound == built and hash(bound) == hash(built)
        assert bound.sql() == built.sql() and repr(bound) == repr(built)
        assert bound.prepared[0] is shape  # shared, not rebuilt
        assert bound.prepared == built.prepared
        assert shape.bind(parameters) == probing({"u"})

    def test_pickling_ships_fields_only(self):
        query = probing({"u"})
        _memoise(query)
        for value in (query, SCHEMAS["R"]):
            copy = pickle.loads(pickle.dumps(value))
            assert copy == value
            assert set(vars(copy)) == {f.name for f in fields(value)}

    def test_memos_do_not_cross_into_another_interpreter(self):
        """String hashes differ per interpreter: a pickled cached hash
        would make an equal key miss in a ``spawn``ed worker.  The child
        runs under another ``PYTHONHASHSEED``, looks the shipped query
        and schemas up in dicts keyed by freshly built equals, and runs
        the query through its own plan cache."""
        query = probing({"u"})
        _memoise(query)
        seed = "1" if os.environ.get("PYTHONHASHSEED") != "1" else "2"
        root = Path(__file__).resolve().parents[2]
        child = subprocess.run(
            [sys.executable, "-c", _CHILD],
            input=pickle.dumps((query, SCHEMAS)),
            capture_output=True,
            cwd=root,
            env={
                **os.environ,
                "PYTHONHASHSEED": seed,
                "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)]),
            },
            timeout=60,
        )
        assert child.returncode == 0, child.stderr.decode()
        theirs = int(child.stdout.split()[-1])
        assert theirs != hash("R.k")  # the child really hashed otherwise


_CHILD = """
import pickle, sys
from repro.relational.executor import execute
from repro.relational.plan import PlanCache
from repro.relational.table import Table
from repro.sim.metrics import Metrics
from tests.relational.test_query import SCHEMAS, probing

query, schemas = pickle.loads(sys.stdin.buffer.read())
assert {probing({"u"}): "found"}[query] == "found"
for alias, schema in schemas.items():
    assert {SCHEMAS[alias]: alias}[schema] == alias
plans = PlanCache(Metrics())
fresh = {alias: Table(schema) for alias, schema in SCHEMAS.items()}
shipped = {alias: Table(schema) for alias, schema in schemas.items()}
fresh["R"].insert((1, "u")), fresh["T"].insert(("x", "u"))
shipped["R"].insert((1, "u")), shipped["T"].insert(("x", "u"))
assert execute(probing({"v"}), fresh, plans).rows() == []
assert execute(query, shipped, plans).rows() == [(1, "x")]
stats = (len(plans._plans), plans.metrics.plan_cache_recompiles)
assert stats == (1, 1), stats
print(hash("R.k"))
"""
