"""The row check's fast path against its per-value specification
(hypothesis).

``validated_row`` returns a tuple whose every value is ``None`` or of
its column's exact Python type as it is, and checks any other row value
by value; ``Table(schema, rows)`` and ``DataSource.create_relation``
load through it in bulk.  ``tests/row_oracle.validated_row_reference``
is the per-value body alone.  Over rows that mix every column type with
every other — ``bool`` in INT, ``int`` in FLOAT (widened), NaN,
``-0.0``, ``None``, int and str subclasses, lists instead of tuples,
wrong widths — both must return equal values of the same Python type in
every column, or raise the same exception with the same message.

Two seeded mutations must each fail the property on its own: ``bool``
accepted for INT, and ``int`` stored unwidened in FLOAT.
"""

import enum
from collections import Counter

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from repro.relational import types
from repro.relational.errors import (
    ArityError,
    RelationalError,
    TypeMismatchError,
)
from repro.relational.rows import validated_row
from repro.relational.schema import RelationSchema
from repro.relational.table import Table
from repro.relational.types import AttributeType
from repro.sources.source import DataSource
from tests.row_oracle import validated_row_reference

INT, FLOAT, STRING, BOOL = (
    AttributeType.INT,
    AttributeType.FLOAT,
    AttributeType.STRING,
    AttributeType.BOOL,
)


class Colour(enum.IntEnum):
    RED = 1


class Word(str):
    pass


NAN = float("nan")

#: values of every kind the engine meets, each offered to every column
ANY_VALUE = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**60), 2**60),
    st.floats(),
    st.text(max_size=3),
    st.sampled_from(
        (Colour.RED, Word("w"), NAN, -0.0, 2**53 + 1, b"x", 1.5)
    ),
)
#: a value of the column's own type, so most rows take the fast path
OWN_VALUE = {
    INT: st.integers(-(2**40), 2**40),
    FLOAT: st.floats(allow_nan=True),
    STRING: st.text(max_size=3),
    BOOL: st.booleans(),
}
COLUMN_TYPES = st.lists(st.sampled_from((INT, FLOAT, STRING, BOOL)),
                        min_size=1, max_size=4)


@st.composite
def rows_for(draw, column_types):
    width = len(column_types) + draw(st.sampled_from((0, 0, 0, 0, -1, 1)))
    values = [
        draw(st.one_of(OWN_VALUE[kind], ANY_VALUE, st.none()))
        for kind in (column_types + [STRING])[:width]
    ]
    return draw(st.sampled_from((tuple, list)))(values)


@st.composite
def schema_and_rows(draw, max_rows):
    column_types = draw(COLUMN_TYPES)
    rows = draw(st.lists(rows_for(column_types), max_size=max_rows))
    return column_types, rows


def _schema(column_types) -> RelationSchema:
    """A fresh schema, so no memo of an earlier (or unmutated) run
    answers for this one."""
    return RelationSchema.of(
        "R", [(f"a{index}", kind) for index, kind in enumerate(column_types)]
    )


def _stored(row) -> tuple:
    """A stored row, compared by container type and by each value's
    type and ``repr`` (so NaN equals NaN and ``-0.0`` is not ``0.0``)."""
    return type(row), [(type(value), repr(value)) for value in row]


def _outcome(run):
    try:
        return run()
    except RelationalError as exc:
        return type(exc), str(exc)


@given(schema_and_rows(max_rows=1))
@example(([INT], [(True,)]))
@example(([FLOAT], [(3,)]))
@example(([INT, FLOAT, STRING, BOOL], [[Colour.RED, NAN, Word("w"), None]]))
@example(([INT, FLOAT], [(1, -0.0, "extra")]))
@settings(max_examples=300, deadline=None)
def test_validated_row_equals_the_per_value_check(drawn):
    column_types, rows = drawn
    for row in rows:
        schema = _schema(column_types)
        assert _outcome(lambda: _stored(validated_row(schema, row))) == (
            _outcome(lambda: _stored(validated_row_reference(schema, row)))
        )


@given(schema_and_rows(max_rows=6))
@settings(max_examples=200, deadline=None)
def test_the_bulk_load_equals_row_by_row_checks(drawn):
    column_types, rows = drawn
    schema = _schema(column_types)

    def loaded(table):
        return [(_stored(row), count) for row, count in table.items()]

    expected = _outcome(
        lambda: [
            (_stored(row), count)
            for row, count in Counter(
                validated_row_reference(schema, row) for row in rows
            ).items()
        ]
    )
    assert _outcome(lambda: loaded(Table(schema, rows))) == expected
    source = DataSource("s")
    assert (
        _outcome(lambda: loaded(source.create_relation(schema, rows)))
        == expected
    )


def test_a_row_of_exact_types_is_stored_as_given():
    schema = _schema([INT, FLOAT, STRING, BOOL])
    row = (1, 2.5, "x", None)
    assert validated_row(schema, row) is row
    assert validated_row(schema, list(row)) == row


@pytest.mark.parametrize(
    "column_types, row, error, message",
    [
        (
            [INT, STRING],
            (1,),
            ArityError,
            "row of width 1 does not match relation 'R' of arity 2",
        ),
        (
            [INT],
            [1, "x"],
            ArityError,
            "row of width 2 does not match relation 'R' of arity 1",
        ),
        ([INT], (True,), TypeMismatchError, "expected INT, got True"),
        ([INT], (1.0,), TypeMismatchError, "expected INT, got 1.0"),
        ([FLOAT], (False,), TypeMismatchError, "expected FLOAT, got False"),
        ([FLOAT], ("1",), TypeMismatchError, "expected FLOAT, got '1'"),
        ([STRING], (1,), TypeMismatchError, "expected STRING, got 1"),
        ([BOOL], (1,), TypeMismatchError, "expected BOOL, got 1"),
    ],
)
def test_every_error_message_is_unchanged(column_types, row, error, message):
    schema = _schema(column_types)
    for load in (
        lambda: validated_row(schema, row),
        lambda: Table(schema, [row]),
        lambda: DataSource("s").create_relation(schema, [row]),
    ):
        with pytest.raises(error) as caught:
            load()
        assert str(caught.value) == message


# the property bites
# ----------------------------------------------------------------------

MUTATIONS = {
    "bool_accepted_for_int": (INT, bool),
    "int_not_widened_to_float": (FLOAT, int),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_each_seeded_mutation_fails_the_property(monkeypatch, mutation):
    kind, exact = MUTATIONS[mutation]
    monkeypatch.setitem(types.EXACT_TYPE, kind, exact)
    # the pinned draws alone: each mutation fails on its own example
    prop = test_validated_row_equals_the_per_value_check
    monkeypatch.setattr(
        prop,
        "_hypothesis_internal_use_settings",
        settings(
            prop._hypothesis_internal_use_settings, phases=(Phase.explicit,)
        ),
    )
    with pytest.raises(AssertionError):
        prop()
