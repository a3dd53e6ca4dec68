"""SQL front-end round-trip: render → parse preserves the query.

The AST's ``sql()`` renders without source qualifiers (plain SQL for a
single engine), so the round-trip is checked through the *sourced*
rendering the parser consumes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.predicate import (
    Comparison,
    InPredicate,
    attr,
    conjunction,
)
from repro.relational.query import JoinCondition, RelationRef, SPJQuery
from repro.relational.sql import parse_query

ALIASES = ("A", "B", "C")
ATTRS = ("k", "x", "y")


def sourced_sql(query: SPJQuery) -> str:
    """Render with ``source.Relation alias`` FROM items."""
    select = ", ".join(ref.qualified() for ref in query.projection)
    from_clause = ", ".join(
        f"{ref.source}.{ref.relation} {ref.alias}"
        for ref in query.relations
    )
    terms = [join.sql() for join in query.joins]
    from repro.relational.predicate import TRUE

    if query.selection is not TRUE:
        terms.append(query.selection.sql())
    sql = f"SELECT {select} FROM {from_clause}"
    if terms:
        sql += " WHERE " + " AND ".join(terms)
    return sql


@st.composite
def spj_queries(draw) -> SPJQuery:
    alias_count = draw(st.integers(min_value=1, max_value=3))
    aliases = ALIASES[:alias_count]
    relations = tuple(
        RelationRef(f"src{index}", f"Rel{alias}", alias)
        for index, alias in enumerate(aliases)
    )
    projection = tuple(
        attr(draw(st.sampled_from(aliases)), draw(st.sampled_from(ATTRS)))
        for _ in range(draw(st.integers(min_value=1, max_value=4)))
    )
    joins = tuple(
        JoinCondition(
            attr(aliases[index], "k"), attr(aliases[index + 1], "k")
        )
        for index in range(alias_count - 1)
    )
    terms = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        owner = draw(st.sampled_from(aliases))
        name = draw(st.sampled_from(ATTRS))
        kind = draw(st.sampled_from(["cmp_int", "cmp_str", "in"]))
        if kind == "cmp_int":
            terms.append(
                Comparison(
                    attr(owner, name),
                    draw(st.sampled_from(["=", "<", ">", "<=", ">=", "!="])),
                    draw(st.integers(min_value=-5, max_value=5)),
                )
            )
        elif kind == "cmp_str":
            terms.append(
                Comparison(
                    attr(owner, name),
                    "=",
                    draw(st.sampled_from(["a", "o'hara", "x y"])),
                )
            )
        else:
            # empty lists, NULL, negative numbers and floats render too
            # (a list's values share a type, as a column's do)
            element = draw(
                st.sampled_from(
                    [
                        st.integers(min_value=-9, max_value=9),
                        st.sampled_from([-2.5, 0.25, 1.0, 37.75]),
                        st.sampled_from(["a", "o'hara", "x y"]),
                        st.booleans(),
                    ]
                )
            )
            values = draw(
                st.frozensets(element | st.none(), min_size=0, max_size=4)
            )
            terms.append(InPredicate(attr(owner, name), values))
    return SPJQuery(relations, projection, joins, conjunction(terms))


@given(spj_queries())
@settings(max_examples=100, deadline=None)
def test_roundtrip_preserves_structure(query):
    parsed = parse_query(sourced_sql(query))
    assert parsed.relations == query.relations
    assert parsed.projection == query.projection
    assert set(parsed.joins) == set(query.joins)
    assert parsed.selection == query.selection


@given(spj_queries())
@settings(max_examples=50, deadline=None)
def test_roundtrip_is_idempotent(query):
    once = parse_query(sourced_sql(query))
    twice = parse_query(sourced_sql(once))
    assert once == twice
