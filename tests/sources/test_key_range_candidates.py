"""A key-range delete picks from kept candidates.

An in-memory source keeps, per ``(relation, key_range)`` it was asked
about, the relation's distinct in-range rows in first-occurrence order
(docs/ALGORITHMS.md §Per-update work).  The property below commits
random streams of data updates and schema changes to an in-memory
source and its sqlite twin, and after every commit holds what both
count and pick equal to the displaced scan (``tests/key_range_oracle``)
over the in-memory relation: NULL keys, int keys into a FLOAT column,
rows deleted to nothing and re-inserted, copies deleted one at a time,
renames, drops and a restructure.  A memo that keeps a row after its
last copy is deleted fails it on a pinned draw, and so does a sqlite
delete that takes a row's first copy instead of its latest.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.relational.delta import Delta
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.types import AttributeType
from repro.sources.messages import (
    AddAttribute,
    CreateRelation,
    DataUpdate,
    DropAttribute,
    DropRelation,
    RenameAttribute,
    RenameRelation,
    RestructureRelations,
)
from repro.sources.source import DataSource
from repro.sources.sqlite_source import SqliteDataSource
from repro.sources.workload import DeleteRandomRow
from tests.key_range_oracle import in_key_range

R = RelationSchema.of("R", [("k", AttributeType.INT), "v"])
F = RelationSchema.of("F", [("k", AttributeType.FLOAT), "v"])
#: a FLOAT range over int keys, a one-key range, a wide and an empty one
RANGES = ((0.5, 2.5), (2, 2), (-9, 9), (4, 6))
KEYS = (None, 0, 1, 2, 3)


def _typed(row) -> list:
    """``row`` with the type of every value: ``1 == 1.0`` must not pass."""
    return [(type(value).__name__, value) for value in row]


def _check(memory: DataSource, sqlite: SqliteDataSource) -> None:
    """Count and pick agree on both sources and with the scan."""
    assert memory.catalog.relation_names == sqlite.catalog.relation_names
    for relation in memory.catalog.relation_names:
        table = memory.catalog.table(relation)
        assert memory.row_count(relation) == sqlite.row_count(relation)
        for key_range in RANGES:
            expected = in_key_range(table, key_range)
            copies = sum(map(table.count, expected))
            for source in (memory, sqlite):
                assert (
                    source.row_count(relation, distinct=True, key_range=key_range)
                    == len(expected)
                )
                assert source.row_count(relation, key_range=key_range) == copies
                assert [
                    _typed(source.distinct_row(relation, index, key_range))
                    for index in range(len(expected))
                ] == [_typed(row) for row in expected]
                picked = source.pick_distinct_row(
                    relation, lambda n: n // 2, key_range
                )
                assert picked == (
                    expected[len(expected) // 2] if expected else None
                )


def _commit(memory, sqlite, update_for) -> None:
    """Commit the update ``update_for()`` builds, once per source (each
    commit annotates its own message)."""
    for source in (memory, sqlite):
        source.commit(update_for())


def _row(schema: RelationSchema, key, tail: int) -> tuple:
    """A row over ``schema``: ``key`` as drawn (an int into a FLOAT
    column stays an int: the table stores the float), then ``tail``'s
    choice of values."""
    return (key,) + tuple(
        ("x", "y", None)[(tail >> position) % 3]
        for position in range(schema.arity - 1)
    )


ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"),
            st.integers(0, 3),
            st.sampled_from(KEYS),
            st.integers(0, 5),
            st.integers(1, 2),
        ),
        st.tuples(
            st.just("delete"), st.integers(0, 3), st.integers(0, 15), st.booleans()
        ),
        st.tuples(
            st.just("swap"),
            st.integers(0, 3),
            st.sampled_from(KEYS),
            st.integers(0, 5),
            st.integers(0, 15),
        ),
        st.tuples(st.just("pick"), st.integers(0, 3), st.integers(0, 99)),
        st.tuples(
            st.sampled_from(
                ["rename_attr", "drop_attr", "add_attr", "rename", "drop"]
            ),
            st.integers(0, 3),
        ),
        st.just(("restructure", 0)),
    ),
    max_size=25,
)


def _run(ops) -> None:
    memory, sqlite = DataSource("s"), SqliteDataSource("s")
    for source in (memory, sqlite):
        for schema in (R, F):
            source.create_relation(
                schema, [(1, "x"), (2, "y"), (None, "x"), (1, "x"), (3, None)]
            )
    created = 0
    _check(memory, sqlite)
    for op in ops:
        names = memory.catalog.relation_names
        if not names and op[0] != "restructure":
            continue
        kind = op[0]
        relation = names[op[1] % len(names)] if names else None
        schema = memory.schema_of(relation) if relation else None
        if kind == "insert":
            _, _, key, tail, count = op
            row = _row(schema, key, tail)
            _commit(
                memory,
                sqlite,
                lambda: DataUpdate.insert(schema, [row] * count),
            )
        elif kind == "delete":
            live = sorted(memory.catalog.table(relation).items(), key=repr)
            if live:
                row, present = live[op[2] % len(live)]
                if isinstance(row[0], float) and row[0].is_integer():
                    row = (int(row[0]),) + row[1:]  # delete by an int key
                _commit(
                    memory,
                    sqlite,
                    lambda: DataUpdate.delete(
                        schema, [row] * (present if op[3] else 1)
                    ),
                )
        elif kind == "swap":
            # one delta inserting a row and deleting another
            _, _, key, tail, victim = op
            live = sorted(memory.catalog.table(relation).items(), key=repr)
            row = _row(schema, key, tail)
            if live and live[victim % len(live)][0] != row:
                gone = live[victim % len(live)][0]

                def swap():
                    delta = Delta(schema)
                    delta.add(row, 1)
                    delta.add(gone, -1)
                    return DataUpdate(relation, delta)

                _commit(memory, sqlite, swap)
        elif kind == "pick":
            # a key-range delete drawn by the workload intent, same seed
            key_range = RANGES[op[2] % len(RANGES)]
            updates = [
                DeleteRandomRow(
                    random.Random(op[2]), relation, key_range
                ).materialize(source)
                for source in (memory, sqlite)
            ]
            assert updates[0] == updates[1]
            if updates[0] is not None:
                for source, update in zip((memory, sqlite), updates):
                    source.commit(update)
        elif kind == "rename_attr":
            old = schema.attribute_names[1]
            new = "w" if old != "w" else "v"
            _commit(
                memory, sqlite, lambda: RenameAttribute(relation, old, new)
            )
        elif kind == "drop_attr":
            if schema.arity > 2:
                last = schema.attribute_names[-1]
                _commit(memory, sqlite, lambda: DropAttribute(relation, last))
        elif kind == "add_attr":
            attribute = Attribute(f"a{schema.arity}")
            _commit(
                memory, sqlite, lambda: AddAttribute(relation, attribute, "x")
            )
        elif kind == "rename":
            created += 1
            new = f"N{created}"
            _commit(memory, sqlite, lambda: RenameRelation(relation, new))
        elif kind == "drop":
            _commit(memory, sqlite, lambda: DropRelation(relation))
            if not memory.catalog.relation_names:
                created += 1
                name = f"N{created}"
                _commit(
                    memory,
                    sqlite,
                    lambda: CreateRelation(
                        F.renamed(name), ((2, "x"), (2, "x"), (None, "y"))
                    ),
                )
        else:
            created += 1
            new_schema = R.renamed(f"N{created}")
            dropped = names[:2]
            _commit(
                memory,
                sqlite,
                lambda: RestructureRelations(
                    dropped, new_schema, ((3, "x"), (1, "y"), (3, "x"))
                ),
            )
        _check(memory, sqlite)


@settings(max_examples=150, deadline=None)
@given(ops)
@example([("delete", 0, 0, True), ("insert", 0, 0, 0, 1)])
@example([("delete", 0, 0, False)])
def test_kept_candidates_are_the_scan(ops):
    _run(ops)


def test_a_delete_to_nothing_and_back_moves_the_row_last():
    _run(
        [
            ("delete", 1, 0, True),  # F's (1.0, 'x'), both copies
            ("insert", 1, 1, 0, 1),  # back, by an int key
            ("delete", 0, 0, False),  # one of R's two (1, 'x')
            ("pick", 0, 7),
        ]
    )


@pytest.mark.parametrize("backend", [DataSource, SqliteDataSource])
def test_rows_coerced_onto_one_row_net_before_they_apply(backend):
    """Two int keys beyond 2**53 store as one FLOAT row: deleting one
    and inserting the other in one delta nets to nothing on either
    backend, so the extent and the first-occurrence order (what a
    delete intent picks from) stay as they were."""
    big = 2**53
    source = backend("s")
    source.create_relation(F, [(big, "x"), (1, "x")])
    before = [(float(big), "x"), (1.0, "x")]
    for key_range in (None, (0, 2 * big)):
        assert [source.distinct_row("F", i, key_range) for i in (0, 1)] == (
            before
        )
    delta = Delta(F)
    delta.add((big + 1, "x"), -1)
    delta.add((big, "x"), 1)
    source.commit(DataUpdate("F", delta))
    assert sorted(source.catalog.table("F").rows()) == sorted(before)
    for key_range in (None, (0, 2 * big)):
        assert [
            _typed(source.distinct_row("F", i, key_range)) for i in (0, 1)
        ] == [_typed(row) for row in before]
