"""The kernel against stdlib ``sqlite3`` over generated queries (hypothesis).

Every other executor suite compares the compiled kernel with an oracle
of ours (``tests/kernel_oracle.py``), and two NULL bugs once lived in
both.  Here the reference is independent: each generated SPJ query's
own ``q.sql()`` (no ``DISTINCT``) runs on a ``:memory:`` sqlite database
loaded with the same rows, and its bag must equal what
:func:`repro.relational.execute` answers — and, for a query over one
relation, what a total :class:`BagProbe` answers for a signed bag.

The queries draw over ``test_executor_equivalence``'s schemas and
NULL-bearing rows: joins on keys (a composite key too), a self-join
under two aliases, a disconnected alias (a bag cartesian product),
comparisons, IN-lists that may hold NULL, ``NOT`` over any of them,
residual multi-relation terms and unqualified references.  Every
generated reference resolves (a dangling or ambiguous one raises at a
different time in each engine: ``test_executor_equivalence`` holds the
kernel's error behaviour to the naive oracle).

sqlite's tables declare no column types, so no type affinity converts a
value.  Where sqlite and our engine still differ, the case is listed in
``KNOWN_DIFFERENCES`` with its reason, and a test pins the difference
itself; the generator leaves exactly those cases out.

Two seeded mutations must each fail the differential on its own: a
hash join that builds NULL keys again, and a ``NOT IN`` that forgets
that a list holding NULL makes every miss UNKNOWN.
"""

import inspect
import sqlite3
import textwrap
from collections import Counter
from itertools import cycle

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from repro.relational import plan
from repro.relational.executor import BagProbe, execute
from repro.relational.predicate import (
    AttrComparison,
    Comparison,
    InPredicate,
    Negation,
    attr,
    conjunction,
)
from repro.relational.query import JoinCondition, RelationRef, SPJQuery
from repro.relational.table import Table
from tests.property.test_executor_equivalence import (
    R,
    S,
    T,
    key,
    price,
    r_rows,
    s_rows,
    t_rows,
    word,
)

#: alias -> relation schema; ``Q`` is ``R`` under a second alias
SCHEMAS = {"R": R, "S": S, "T": T, "Q": R}
#: the kind of each column, by name (the same in ``R`` and ``Q``)
KINDS = {
    "k": "int", "j": "int", "b": "float", "a": "str", "c": "str", "d": "str"
}
CONSTANTS = {"int": key, "float": price, "str": word}
#: the kinds two columns may be compared or joined across
NUMBERS = ("int", "float")

OPERATORS = ("=", "!=", "<", "<=", ">", ">=")

#: name -> (query, rows per schema, what sqlite answers, what ours does:
#: an answer or the exception it raises).  Each is a case where sqlite is
#: not the SQL our engine implements, its reason above it; the generator
#: never draws one.
KNOWN_DIFFERENCES = {
    # Standard SQL has no empty IN list.  sqlite's extension makes
    # ``NULL IN ()`` FALSE, so its NOT passes the NULL row; ours keeps
    # a NULL operand UNKNOWN, as for every other list.
    "not_in_empty_list": (
        SPJQuery(
            relations=(RelationRef("s", "R", "R"),),
            projection=(attr("R", "a"),),
            selection=Negation(InPredicate(attr("R", "k"), frozenset())),
        ),
        {R: [(1, "p", 0.5), (None, "n", 0.5)]},
        Counter({("p",): 1, ("n",): 1}),
        Counter({("p",): 1}),
    ),
    # sqlite orders values of different storage classes by class (every
    # number before every string); a string never orders against a
    # number in ours.  A view is refused such a comparison when it is
    # bound to its sources (``ViewDefinition.result_schema``), so the
    # kernel meets it only when called directly, and raises.
    "string_ordered_against_number": (
        SPJQuery(
            relations=(RelationRef("s", "R", "R"),),
            projection=(attr("R", "k"),),
            selection=Comparison(attr("R", "a"), "<", 45),
        ),
        {R: [(1, "p", 0.5)]},
        Counter(),
        TypeError,
    ),
}


def _sqlite(query: SPJQuery, tables: dict) -> Counter:
    """``query.sql()`` evaluated by sqlite over ``{schema: rows}``, in
    tables with no declared column types."""
    db = sqlite3.connect(":memory:")
    try:
        for schema, rows in tables.items():
            names = ", ".join(schema.attribute_names)
            db.execute(f"CREATE TABLE {schema.name} ({names})")
            marks = ", ".join("?" for _ in schema.attribute_names)
            db.executemany(
                f"INSERT INTO {schema.name} VALUES ({marks})", rows
            )
        return Counter(db.execute(query.sql()).fetchall())
    finally:
        db.close()


def _answered(table: Table) -> Counter:
    return Counter(dict(table.items()))


def _nonzero(effect: Counter) -> dict:
    return {row: count for row, count in effect.items() if count}


# ----------------------------------------------------------------------
# the query generator
# ----------------------------------------------------------------------


@st.composite
def _queries(draw) -> SPJQuery:
    aliases = draw(
        st.lists(
            st.sampled_from(sorted(SCHEMAS)),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    columns = [
        (alias, name)
        for alias in aliases
        for name in SCHEMAS[alias].attribute_names
    ]
    owners: dict[str, list[str]] = {}
    for alias, name in columns:
        owners.setdefault(name, []).append(alias)

    def ref(kinds=None):
        alias, name = draw(
            st.sampled_from(
                [
                    column
                    for column in columns
                    if kinds is None or KINDS[column[1]] in kinds
                ]
            )
        )
        if len(owners[name]) == 1 and draw(st.booleans()):
            return attr(name)  # unqualified, and unique
        return attr(alias, name)

    def kinds_of(column) -> tuple[str, ...]:
        kind = KINDS[column.name]
        return NUMBERS if kind in NUMBERS else (kind,)

    # Each later alias joins an earlier one on a key, on a key and a
    # string (a composite key), or not at all (a product).
    joins = []
    for index, alias in enumerate(aliases[1:], start=1):
        other = draw(st.sampled_from(aliases[:index]))
        shape = draw(st.sampled_from(["none", "key", "composite"]))
        if shape == "none":
            continue
        for kind in ["int"] + (["str"] if shape == "composite" else []):
            left = [
                name for name in SCHEMAS[alias].attribute_names
                if KINDS[name] == kind
            ]
            right = [
                name for name in SCHEMAS[other].attribute_names
                if KINDS[name] == kind
            ]
            joins.append(
                JoinCondition(
                    attr(alias, draw(st.sampled_from(left))),
                    attr(other, draw(st.sampled_from(right))),
                )
            )

    def term(depth: int):
        shape = draw(
            st.sampled_from(
                ["compare", "attrs", "in", "not"]
                + (["not_and"] if depth < 2 else [])
            )
        )
        if shape == "compare":
            column = ref()
            kind = draw(st.sampled_from(kinds_of(column)))
            return Comparison(
                column, draw(st.sampled_from(OPERATORS)),
                draw(CONSTANTS[kind]),
            )
        if shape == "attrs":
            left = ref()
            return AttrComparison(
                left, draw(st.sampled_from(OPERATORS)), ref(kinds_of(left))
            )
        if shape == "in":
            column = ref()
            kind = draw(st.sampled_from(kinds_of(column)))
            return InPredicate(
                column,
                draw(st.frozensets(CONSTANTS[kind], min_size=1, max_size=3)),
            )
        if shape == "not":
            return Negation(term(depth + 1))
        return Negation(conjunction([term(depth + 1), term(depth + 1)]))

    selection = conjunction(
        [term(0) for _ in range(draw(st.integers(min_value=0, max_value=3)))]
    )
    projection = tuple(
        ref() for _ in range(draw(st.integers(min_value=1, max_value=3)))
    )
    return SPJQuery(
        relations=tuple(
            RelationRef("s", SCHEMAS[alias].name, alias) for alias in aliases
        ),
        projection=projection,
        joins=tuple(joins),
        selection=selection,
    )


def _check(query: SPJQuery, rows: dict, signs: list) -> None:
    loaded = {schema: rows[schema.name] for schema in {R, S, T}}
    tables = {
        alias: Table(SCHEMAS[alias], rows[SCHEMAS[alias].name])
        for alias in query.aliases
    }
    expected = _sqlite(query, loaded)
    assert _answered(execute(query, tables)) == expected, query.sql()
    if len(query.aliases) > 1:
        return
    (alias,) = query.aliases
    schema = SCHEMAS[alias]
    probe = BagProbe(query, alias, schema)
    assert probe._plan is not None, "a resolving one-relation plan is total"
    # a signed bag over the relation's distinct rows
    items = list(
        zip(sorted(set(rows[schema.name]), key=repr), cycle(signs or [1]))
    )
    effect: Counter = Counter()
    for sign, answer in probe.parts(probe.keep(items)):
        for row, count in answer.items():
            effect[row] += sign * count
    signed: Counter = Counter()
    for sign in (1, -1):
        part = [
            row
            for row, count in items
            if count * sign > 0
            for _ in range(abs(count))
        ]
        for row, count in _sqlite(query, {schema: part}).items():
            signed[row] += sign * count
    assert _nonzero(effect) == _nonzero(signed), query.sql()


#: one draw each seeded mutation fails on, pinned
NULL_KEYS_JOIN = SPJQuery(
    relations=(RelationRef("s", "R", "R"), RelationRef("s", "T", "T")),
    projection=(attr("R", "a"), attr("T", "d")),
    joins=(JoinCondition(attr("R", "k"), attr("T", "j")),),
)
NOT_IN_A_LIST_WITH_NULL = SPJQuery(
    relations=(RelationRef("s", "R", "R"),),
    projection=(attr("R", "a"),),
    selection=Negation(InPredicate(attr("R", "k"), frozenset({1, None}))),
)


@given(
    query=_queries(),
    r_data=r_rows,
    s_data=s_rows,
    t_data=t_rows,
    signs=st.lists(
        st.integers(min_value=-3, max_value=3).filter(bool), max_size=10
    ),
)
@example(
    query=NULL_KEYS_JOIN,
    r_data=[(None, "p", 0.5)],
    s_data=[],
    t_data=[(None, "q")],
    signs=[],
)
@example(
    query=NOT_IN_A_LIST_WITH_NULL,
    r_data=[(2, "p", 0.5)],
    s_data=[],
    t_data=[],
    signs=[1, -1],
)
@settings(max_examples=300, deadline=None)
def test_the_kernel_answers_what_sqlite_answers(
    query, r_data, s_data, t_data, signs
):
    _check(query, {"R": r_data, "S": s_data, "T": t_data}, signs)


# ----------------------------------------------------------------------
# where sqlite is not our SQL
# ----------------------------------------------------------------------


@pytest.mark.parametrize("case", sorted(KNOWN_DIFFERENCES))
def test_each_known_difference_is_what_it_says(case):
    query, loaded, sqlite_answer, ours = KNOWN_DIFFERENCES[case]
    assert _sqlite(query, loaded) == sqlite_answer
    tables = {
        alias: Table(SCHEMAS[alias], loaded[SCHEMAS[alias]])
        for alias in query.aliases
    }
    if isinstance(ours, type):
        with pytest.raises(ours):
            execute(query, tables)
    else:
        assert _answered(execute(query, tables)) == ours != sqlite_answer


# ----------------------------------------------------------------------
# the differential bites
# ----------------------------------------------------------------------


def _mutated(function, old: str, new: str):
    """``function`` of ``repro.relational.plan`` recompiled with the
    text ``old`` of its source replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, old
    namespace = dict(vars(plan))
    exec(compile(source.replace(old, new), plan.__file__, "exec"), namespace)
    return namespace[function.__name__]


MUTATIONS = {
    "null_keys_built": (
        plan._Join,
        "run",
        "if key is None or type(key) is tuple and None in key:",
        "if False:",
    ),
    "not_in_forgets_the_null": (
        plan,
        "_compile_leaf",
        "if None in values:\n                    return _never",
        "if False:\n                    return _never",
    ),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_each_seeded_mutation_fails_the_differential(monkeypatch, mutation):
    owner, name, old, new = MUTATIONS[mutation]
    monkeypatch.setattr(
        owner, name, _mutated(vars(owner)[name], old, new)
    )
    # the tier-1 draws, unshrunk: a failure is all this test asks for
    differential = test_the_kernel_answers_what_sqlite_answers
    monkeypatch.setattr(
        differential,
        "_hypothesis_internal_use_settings",
        settings(
            differential._hypothesis_internal_use_settings,
            phases=(Phase.explicit, Phase.generate),
        ),
    )
    with pytest.raises(AssertionError):
        test_the_kernel_answers_what_sqlite_answers()
