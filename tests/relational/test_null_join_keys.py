"""A NULL join key matches nothing, and NULL is never TRUE, as in SQL.

Both hash joins used to bucket ``None`` like any other value, so
``NULL = NULL`` joined; the same join written as a residual
``AttrComparison`` is false for NULL operands, and so are sqlite's ``=``
and ``IN``.  stdlib ``sqlite3`` is the independent evaluator here: it
runs the query's own ``.sql()`` over the same rows, for the compiled
kernel, the naive oracle of ``tests/kernel_oracle.py``, and a probe
sweep over an in-memory and a sqlite source.

A selection passes a row only when it is TRUE under three-valued logic:
``x IN L`` is UNKNOWN when ``x`` is NULL, or when ``x`` misses ``L``
and ``L`` holds NULL; NOT of UNKNOWN is UNKNOWN.  The same cases run
through the kernel and the oracle, an index probe, and a memory and a
sqlite source.
"""

import sqlite3
from collections import Counter

import pytest

from repro.maintenance.vm import maintain_data_update
from repro.relational.plan import execute_compiled
from repro.relational.predicate import (
    Comparison,
    InPredicate,
    Negation,
    attr,
    conjunction,
)
from repro.relational.query import JoinCondition, RelationRef, SPJQuery
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.table import Table
from repro.relational.types import AttributeType
from repro.sim.engine import SimEngine
from repro.sources.messages import DataUpdate
from repro.sources.source import DataSource
from repro.sources.sqlite_source import SqliteDataSource
from repro.views.definition import ViewDefinition
from repro.views.manager import ViewManager, _UMQView
from tests.builders import free_cost_model
from tests.kernel_oracle import execute_naive

R = RelationSchema(
    "R",
    (Attribute("k", AttributeType.INT), Attribute("a", AttributeType.STRING)),
)
T = RelationSchema(
    "T",
    (Attribute("k", AttributeType.INT), Attribute("x", AttributeType.STRING)),
)
R_ROWS = [(1, "r1"), (None, "rn")]
T_ROWS = [(1, "t1"), (None, "tn")]

#: R.a, T.x of R joined with T on k
QUERY = SPJQuery(
    relations=(RelationRef("s", "R", "R"), RelationRef("s", "T", "T")),
    projection=(attr("R", "a"), attr("T", "x")),
    joins=(JoinCondition(attr("R", "k"), attr("T", "k")),),
)


def _sqlite(query: SPJQuery, tables: dict) -> Counter:
    """``query.sql()`` evaluated by sqlite over ``{schema: rows}``."""
    db = sqlite3.connect(":memory:")
    for schema, rows in tables.items():
        names = ", ".join(schema.attribute_names)
        db.execute(f"CREATE TABLE {schema.name} ({names})")
        marks = ", ".join("?" for _ in schema.attribute_names)
        db.executemany(
            f"INSERT INTO {schema.name} VALUES ({marks})", rows
        )
    return Counter(db.execute(query.sql()).fetchall())


def test_sqlite_drops_the_null_key():
    assert _sqlite(QUERY, {R: R_ROWS, T: T_ROWS}) == Counter({("r1", "t1"): 1})


@pytest.mark.parametrize("kernel", [execute_compiled, execute_naive])
@pytest.mark.parametrize("two_keys", [False, True])
def test_kernels_agree_with_sqlite(kernel, two_keys):
    query = QUERY
    if two_keys:  # a composite key with one NULL component
        query = SPJQuery(
            relations=QUERY.relations,
            projection=QUERY.projection,
            joins=QUERY.joins
            + (JoinCondition(attr("R", "a"), attr("T", "x")),),
        )
    r_rows = R_ROWS + [(None, "same"), (2, None)]
    t_rows = T_ROWS + [(None, "same"), (2, None)]
    tables = {
        "R": Table(R, r_rows),
        "T": Table(T, t_rows),
    }
    expected = _sqlite(query, {R: r_rows, T: t_rows})
    assert Counter(dict(kernel(query, tables).items())) == expected


@pytest.mark.parametrize("backend", [DataSource, SqliteDataSource])
def test_a_probe_sweep_agrees_with_sqlite(backend):
    engine = SimEngine(free_cost_model())
    source = engine.add_source(backend("s"))
    source.create_relation(R, [])
    source.create_relation(T, T_ROWS)
    manager = ViewManager(engine, ViewDefinition("V", QUERY))
    source.commit(DataUpdate.insert(R, R_ROWS), at=engine.clock.now)
    head = manager.umq.head()
    process = maintain_data_update(
        manager.view, head, _UMQView(manager, head, [])
    )
    delta = engine.run_process(process)
    # the view delta of an insert into an empty R: the view over it
    assert Counter(dict(delta.items())) == _sqlite(
        QUERY, {R: R_ROWS, T: T_ROWS}
    )


# --- three-valued logic under IN and NOT ---------------------------------

#: ``R(k, a)`` with a NULL key between two others
K_ROWS = [(1, "x"), (None, "n"), (2, "y")]
K = attr("R", "k")

#: selection -> what sqlite answers over ``K_ROWS`` (checked below)
THREE_VALUED = {
    "in_with_null": (InPredicate(K, frozenset({1, None})), {"x"}),
    "not_in": (Negation(InPredicate(K, frozenset({1}))), {"y"}),
    "not_equal": (Negation(Comparison(K, "=", 1)), {"y"}),
    "not_in_with_null": (
        Negation(InPredicate(K, frozenset({1, None}))),
        set(),
    ),
    "not_not_in": (
        Negation(Negation(InPredicate(K, frozenset({1})))),
        {"x"},
    ),
    # FALSE AND UNKNOWN is FALSE, so its NOT passes the NULL row too
    "not_false_and_unknown": (
        Negation(
            conjunction(
                [Comparison(attr("R", "a"), "=", "x"), Comparison(K, ">", 1)]
            )
        ),
        {"x", "n", "y"},
    ),
    # TRUE AND UNKNOWN is UNKNOWN, and so is its NOT
    "not_true_and_unknown": (
        Negation(
            conjunction(
                [Comparison(attr("R", "a"), "!=", "y"), Comparison(K, ">", 1)]
            )
        ),
        {"x", "y"},
    ),
    "not_and_with_null_list": (
        Negation(
            conjunction(
                [
                    InPredicate(K, frozenset({2, None})),
                    Comparison(attr("R", "a"), "!=", "y"),
                ]
            )
        ),
        {"y"},
    ),
    "not_null_literal": (Negation(Comparison(K, "=", None)), set()),
}


def _selecting(selection) -> SPJQuery:
    return SPJQuery(
        relations=(RelationRef("s", "R", "R"),),
        projection=(attr("R", "a"),),
        selection=selection,
    )


def _answered(table) -> Counter:
    return Counter(dict(table.items()))


@pytest.mark.parametrize("case", sorted(THREE_VALUED))
def test_sqlite_answers_three_valued(case):
    selection, expected = THREE_VALUED[case]
    answer = _sqlite(_selecting(selection), {R: K_ROWS})
    assert answer == Counter({(a,): 1 for a in expected})


@pytest.mark.parametrize("kernel", [execute_compiled, execute_naive])
@pytest.mark.parametrize("case", sorted(THREE_VALUED))
def test_kernels_pass_only_true_rows(kernel, case):
    query = _selecting(THREE_VALUED[case][0])
    assert _answered(kernel(query, {"R": Table(R, K_ROWS)})) == _sqlite(
        query, {R: K_ROWS}
    )


@pytest.mark.parametrize("kernel", [execute_compiled, execute_naive])
def test_an_index_probe_serves_no_null(kernel):
    """A one-value-plus-NULL list over a wider table takes the index
    probe: the NULL rows must not come back through it."""
    rows = [(key, f"r{key}") for key in range(12)] + [(None, "n")] * 3
    query = _selecting(InPredicate(K, frozenset({3, None})))
    table = Table(R, rows)
    assert list(table.probe("k", [None, 3])) == [((3, "r3"), 1)]
    assert _answered(kernel(query, {"R": table})) == _sqlite(query, {R: rows})


@pytest.mark.parametrize("case", sorted(THREE_VALUED))
def test_memory_and_sqlite_sources_agree(case):
    query = _selecting(THREE_VALUED[case][0])
    answers = []
    for backend in (DataSource, SqliteDataSource):
        source = backend("s")
        source.create_relation(R, K_ROWS)
        answers.append(_answered(source.execute(query)))
    assert answers[0] == answers[1] == _sqlite(query, {R: K_ROWS})
