"""A NULL join key matches nothing, as in SQL.

Both hash joins used to bucket ``None`` like any other value, so
``NULL = NULL`` joined; the same join written as a residual
``AttrComparison`` is false for NULL operands, and so are sqlite's ``=``
and ``IN``.  stdlib ``sqlite3`` is the independent evaluator here: it
runs the query's own ``.sql()`` over the same rows, for the compiled
kernel, the naive kernel, and a probe sweep over an in-memory and a
sqlite source.
"""

import sqlite3
from collections import Counter

import pytest

from repro.maintenance.vm import maintain_data_update
from repro.relational.executor import execute_naive
from repro.relational.plan import execute_compiled
from repro.relational.predicate import attr
from repro.relational.query import JoinCondition, RelationRef, SPJQuery
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.table import Table
from repro.relational.types import AttributeType
from repro.sim.costs import CostModel
from repro.sim.engine import SimEngine
from repro.sources.messages import DataUpdate
from repro.sources.source import DataSource
from repro.sources.sqlite_source import SqliteDataSource
from repro.views.definition import ViewDefinition
from repro.views.manager import ViewManager

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
    engine = SimEngine(CostModel.free())
    source = engine.add_source(backend("s"))
    source.create_relation(R, [])
    source.create_relation(T, T_ROWS)
    manager = ViewManager(engine, ViewDefinition("V", QUERY))
    source.commit(DataUpdate.insert(R, R_ROWS), at=engine.clock.now)
    process = maintain_data_update(
        manager.view, manager.umq.head(), manager.umq
    )
    delta = engine.run_process(process)
    # the view delta of an insert into an empty R: the view over it
    assert Counter(dict(delta.items())) == _sqlite(
        QUERY, {R: R_ROWS, T: T_ROWS}
    )
