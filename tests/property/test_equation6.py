"""Equation 6 (telescoping delta) equals the recompute diff (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.delta import Delta
from repro.relational.executor import execute
from repro.relational.predicate import attr
from repro.relational.query import JoinCondition, RelationRef, SPJQuery
from repro.relational.schema import RelationSchema
from repro.relational.table import Table
from repro.relational.types import AttributeType

R = RelationSchema.of("R", [("k", AttributeType.INT), "a"])
T = RelationSchema.of("T", [("k", AttributeType.INT), "x"])
U = RelationSchema.of("U", [("k", AttributeType.INT), "y"])


def telescoping_delta(
    query: SPJQuery,
    old_tables: dict[str, Table],
    new_tables: dict[str, Table],
) -> Delta | None:
    """Equation 6 verbatim: the signed view delta from old to new source
    states, ``Σ_i new-prefix ⋈ ΔR_i ⋈ old-suffix``.  ``old_tables`` and
    ``new_tables`` bind every alias of ``query``; ``None`` when no
    relation changed.  View adaptation computes the same delta in closed
    form (recompute and diff); this is its oracle."""
    total: Delta | None = None
    aliases = list(query.aliases)
    for index, alias in enumerate(aliases):
        delta_i = new_tables[alias].as_delta()
        delta_i.merge(old_tables[alias].as_delta().negated())
        if delta_i.is_empty():
            continue
        bindings: dict[str, Table] = {}
        for j, other in enumerate(aliases):
            if j < index:
                bindings[other] = new_tables[other]
            elif j > index:
                bindings[other] = old_tables[other]
        positive = Table(delta_i.schema)
        negative = Table(delta_i.schema)
        for row, count in delta_i.items():
            if count > 0:
                positive.insert(row, count)
            else:
                negative.insert(row, -count)
        plus = execute(query, {**bindings, alias: positive})
        minus = execute(query, {**bindings, alias: negative})
        contribution = plus.as_delta()
        contribution.merge(minus.as_delta().negated())
        if total is None:
            total = contribution
        else:
            total.merge(contribution)
    return total


small_int = st.integers(min_value=0, max_value=3)
word = st.sampled_from(["p", "q"])
rows = st.lists(st.tuples(small_int, word), max_size=6)


def three_way() -> SPJQuery:
    return SPJQuery(
        relations=(
            RelationRef("s", "R", "R"),
            RelationRef("s", "T", "T"),
            RelationRef("s", "U", "U"),
        ),
        projection=(attr("R", "a"), attr("T", "x"), attr("U", "y")),
        joins=(
            JoinCondition(attr("R", "k"), attr("T", "k")),
            JoinCondition(attr("T", "k"), attr("U", "k")),
        ),
    )


@given(rows, rows, rows, rows, rows, rows)
@settings(max_examples=60, deadline=None)
def test_equation6_equals_recompute_diff(r0, t0, u0, r1, t1, u1):
    query = three_way()
    old_tables = {
        "R": Table(R, r0),
        "T": Table(T, t0),
        "U": Table(U, u0),
    }
    new_tables = {
        "R": Table(R, r1),
        "T": Table(T, t1),
        "U": Table(U, u1),
    }
    delta = telescoping_delta(query, old_tables, new_tables)

    expected = execute(query, new_tables).as_delta()
    expected.merge(execute(query, old_tables).as_delta().negated())

    if delta is None:
        assert expected.is_empty()
    else:
        assert delta == expected


@given(rows, rows, rows)
@settings(max_examples=30, deadline=None)
def test_equation6_applies_cleanly_to_old_extent(r0, t0, r1):
    """V_old + ΔV = V_new as actual table mutation."""
    query = SPJQuery(
        relations=(
            RelationRef("s", "R", "R"),
            RelationRef("s", "T", "T"),
        ),
        projection=(attr("R", "a"), attr("T", "x")),
        joins=(JoinCondition(attr("R", "k"), attr("T", "k")),),
    )
    old_tables = {"R": Table(R, r0), "T": Table(T, t0)}
    new_tables = {"R": Table(R, r1), "T": old_tables["T"]}
    extent = execute(query, old_tables)
    delta = telescoping_delta(query, old_tables, new_tables)
    if delta is not None:
        extent.apply_delta(delta)
    assert extent == execute(query, new_tables)
