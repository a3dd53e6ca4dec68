"""A table keeps its row total.

``len(table)`` sums the counts on its first call and every mutation
keeps the sum from then on (docs/ALGORITHMS.md §Per-update work).  The
property below draws op sequences over every way a table changes or is
made — a delta that raises partway included — and holds the kept total
to the sum of the counts after every op.  A ``delete`` that does not
take its copies off the total fails it on a pinned draw.
"""

from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.relational.delta import Delta
from repro.relational.errors import DataError
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.table import Table
from repro.relational.types import AttributeType

R = RelationSchema.of("R", [("k", AttributeType.INT), "v"])

#: the rows ops draw from: repeated keys and values, and NULL
ROWS = [(k, v) for k in (None, 0, 1) for v in ("x", "y")]


def _row(table: Table, index: int) -> tuple:
    """One of :data:`ROWS` widened (or cut) to the table's arity."""
    key, value = ROWS[index % len(ROWS)]
    return ((key, value) + ("x",) * table.schema.arity)[: table.schema.arity]


def _live(table: Table, index: int):
    """A live ``(row, count)`` of ``table`` chosen by ``index``, or None."""
    live = sorted(table.items(), key=repr)
    return live[index % len(live)] if live else None


ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 5), st.integers(1, 3)),
        st.tuples(st.just("delete"), st.integers(0, 7), st.booleans()),
        st.tuples(
            st.just("delta"), st.integers(0, 5), st.integers(0, 7), st.booleans()
        ),
        st.tuples(st.just("from_counts"), st.booleans()),
        st.sampled_from(
            [("clear",), ("copy",), ("renamed",), ("drop",), ("add",)]
        ),
    ),
    max_size=30,
)


def _apply(table: Table, op: tuple) -> Table:
    """``op`` on ``table``; returns the table to go on with."""
    kind = op[0]
    if kind == "insert":
        table.insert(_row(table, op[1]), op[2])
    elif kind == "delete":
        picked = _live(table, op[1])
        if picked is not None:
            row, present = picked
            table.delete(row, present if op[2] else 1)
    elif kind == "delta":
        # an insert, then (when ``op[3]``) a delete of more copies than
        # are there: the delta raises partway, after its insert applied
        _, index, victim, overdraw = op
        delta = Delta(table.schema)
        delta.add(_row(table, index), 2)
        picked = _live(table, victim)
        if picked is not None and picked[0] != _row(table, index):
            row, present = picked
            delta.add(row, -(present + 1 if overdraw else 1))
        try:
            table.apply_delta(delta)
        except DataError:
            assert overdraw
    elif kind == "from_counts":
        counts = Counter(dict(table.items()))
        size = sum(counts.values()) if op[1] else None
        return Table.from_counts(table.schema, counts, size)
    elif kind == "clear":
        table.clear()
    elif kind == "copy":
        return table.copy()
    elif kind == "renamed":
        return table.renamed("S" if table.schema.name == "R" else "R")
    elif kind == "drop":
        if table.schema.arity > 2:
            table.drop_attribute(table.schema.attributes[-1].name)
    else:
        table.add_attribute(Attribute(f"w{table.schema.arity}"), "x")
    return table


@settings(max_examples=300, deadline=None)
@given(ops)
@example([("insert", 0, 2), ("delete", 0, False)])
def test_the_kept_total_is_the_sum_of_the_counts(ops):
    table = Table(R, ROWS[:3])
    assert len(table) == 3
    for op in ops:
        table = _apply(table, op)
        assert len(table) == sum(count for _, count in table.items())


def test_the_total_is_summed_once_then_kept():
    table = Table(R, [(1, "x"), (1, "x"), (2, "y")])
    assert table._size is None
    assert len(table) == 3
    table._counts[(3, "z")] = 5  # behind the table's back: not seen
    assert len(table) == 3


def test_from_counts_adopts_a_given_total_and_sums_a_missing_one():
    counts = Counter({(1, "x"): 2, (2, "y"): 1})
    assert len(Table.from_counts(R, counts)) == 3
    assert Table.from_counts(R, counts, 3)._size == 3
    assert Table.from_counts(R, counts)._size is None
