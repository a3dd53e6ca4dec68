"""Compiled kernel vs the naive oracle over random queries (hypothesis).

The compiled/columnar kernel (:mod:`repro.relational.plan`) must answer
as the naive evaluator of ``tests/kernel_oracle.py`` does: identical
bags, identical result-schema names, and — when a query dangles after a
schema change — the identical exception class.  These properties drive
random SPJ queries (joins, pushdown-able and residual selections,
IN-lists, unqualified and dangling references) over bag tables with
duplicates and NULLs, then keep checking equivalence as signed deltas
and drop/rename schema changes mutate the tables underneath the plan
cache.

A plan is compiled from the query's *shape* and its IN-lists are bound
per execute, so one cached plan must answer every rebinding exactly,
index-probe choice included (``test_one_plan_rebinds_exactly``).

A projection that keeps every column in place adopts one copy of the
rows instead of projecting each: the answer must equal the per-row loop
in iteration order too, and must never share a dict with a source table
or with another answer (``test_identity_projections_adopt_exactly``,
``test_an_adopted_answer_never_aliases_source_state``).
"""

import operator
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import SnapshotCache
from repro.relational import plan
from repro.relational.delta import Delta
from repro.relational.errors import RelationalError
from repro.relational.executor import execute
from repro.relational.plan import PlanCache, compile_plan, result_schema
from repro.relational.predicate import (
    AttrComparison,
    Comparison,
    InPredicate,
    Negation,
    attr,
    conjunction,
)
from repro.relational.query import JoinCondition, RelationRef, SPJQuery
from repro.relational.schema import RelationSchema
from repro.relational.table import Table
from repro.relational.types import AttributeType
from repro.sim.metrics import Metrics
from repro.sources.messages import DataUpdate
from repro.sources.source import DataSource
from tests.kernel_oracle import execute_naive

R = RelationSchema.of(
    "R", [("k", AttributeType.INT), "a", ("b", AttributeType.FLOAT)]
)
S = RelationSchema.of("S", [("k", AttributeType.INT), "c"])
T = RelationSchema.of("T", [("j", AttributeType.INT), "d"])

key = st.one_of(st.integers(min_value=0, max_value=3), st.none())
word = st.one_of(st.sampled_from(["p", "q", "r"]), st.none())
price = st.one_of(st.sampled_from([0.5, 1.5, 2.5]), st.none())

# Duplicates matter: draw few distinct values over up to 10 rows so the
# same tuple recurs with multiplicity > 1.
r_rows = st.lists(st.tuples(key, word, price), max_size=10)
s_rows = st.lists(st.tuples(key, word), max_size=10)
t_rows = st.lists(st.tuples(key, word), max_size=10)


def _selection(kind: int, threshold):
    if kind == 0:
        return conjunction([])
    if kind == 1:
        return Comparison(attr("R", "k"), ">=", threshold)
    if kind == 2:
        return conjunction(
            [
                Comparison(attr("R", "k"), ">=", threshold),
                InPredicate(attr("S", "k"), frozenset({0, 1, threshold})),
            ]
        )
    if kind == 3:  # residual multi-relation term
        return AttrComparison(attr("R", "k"), "<=", attr("T", "j"))
    if kind == 4:  # unqualified reference (unique: only R has "a")
        return Comparison(attr("a"), "=", "p")
    # dangling reference — both executors must raise the same class
    return Comparison(attr("R", "missing"), "=", 1)


def _projection(kind: int):
    if kind == 0:
        return (attr("R", "a"), attr("S", "c"), attr("T", "d"))
    if kind == 1:  # unqualified but unique names
        return (attr("b"), attr("R", "k"))
    if kind == 2:  # ambiguous unqualified name ("k" is in R and S)
        return (attr("k"),)
    # dangling projection
    return (attr("T", "gone"),)


def _query(selection_kind: int, projection_kind: int, threshold: int):
    return SPJQuery(
        relations=(
            RelationRef("s", "R", "R"),
            RelationRef("s", "S", "S"),
            RelationRef("s", "T", "T"),
        ),
        projection=_projection(projection_kind),
        joins=(
            JoinCondition(attr("R", "k"), attr("S", "k")),
            JoinCondition(attr("S", "k"), attr("T", "j")),
        ),
        selection=_selection(selection_kind, threshold),
    )


def _outcome(executor, query, tables):
    """Result bag + schema names, or the raised exception class."""
    try:
        table = executor(query, tables)
    except RelationalError as error:
        return ("raised", type(error).__name__)
    return (
        "ok",
        Counter(dict(table.items())),
        tuple(table.schema.attribute_names),
    )


def assert_equivalent(query, tables):
    naive = _outcome(execute_naive, query, tables)
    compiled = _outcome(execute, query, tables)
    assert naive == compiled


@given(
    r_rows,
    s_rows,
    t_rows,
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)
@settings(max_examples=120, deadline=None)
def test_random_queries_equivalent(
    r_data, s_data, t_data, selection_kind, projection_kind, threshold
):
    tables = {
        "R": Table(R, r_data),
        "S": Table(S, s_data),
        "T": Table(T, t_data),
    }
    query = _query(selection_kind, projection_kind, threshold)
    assert_equivalent(query, tables)


@given(
    r_rows,
    s_rows,
    r_rows,
    st.data(),
    st.integers(min_value=0, max_value=4),
)
@settings(max_examples=80, deadline=None)
def test_equivalence_survives_signed_deltas(
    r_data, s_data, extra_rows, data, selection_kind
):
    """Apply a signed delta (deletes of resident rows + fresh inserts)
    and re-check: the cached plan must see the new extent."""
    tables = {
        "R": Table(R, r_data),
        "S": Table(S, s_data),
        "T": Table(T, []),
    }
    query = _query(selection_kind, 0, 1)
    assert_equivalent(query, tables)

    target = tables["R"]
    delta = Delta(target.schema)
    resident = list(target.items())
    if resident:
        victims = data.draw(
            st.lists(
                st.sampled_from(resident), max_size=len(resident)
            )
        )
        for row, count in set(victims):
            if delta.count(row) > -count:
                delta.add(row, -1)
    for row in extra_rows:
        delta.add(row, 1)
    target.apply_delta(delta)
    assert_equivalent(query, tables)


@given(
    r_rows,
    s_rows,
    t_rows,
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=3),
    st.sampled_from(
        [
            ("drop", "R", "a"),
            ("drop", "S", "c"),
            ("drop", "R", "k"),
            ("rename", "T", "d", "dd"),
            ("rename", "R", "a", "a2"),
        ]
    ),
)
@settings(max_examples=80, deadline=None)
def test_equivalence_survives_schema_changes(
    r_data, s_data, t_data, selection_kind, projection_kind, change
):
    """Drop/rename an attribute under a cached plan: both executors must
    agree afterwards — on the new result *or* on the exception class
    (dangling references are the broken-query anomaly's raw material)."""
    tables = {
        "R": Table(R, r_data),
        "S": Table(S, s_data),
        "T": Table(T, t_data),
    }
    query = _query(selection_kind, projection_kind, 1)
    assert_equivalent(query, tables)  # populate the plan cache

    if change[0] == "drop":
        tables[change[1]].drop_attribute(change[2])
    else:
        tables[change[1]].rename_attribute(change[2], change[3])
    assert_equivalent(query, tables)


@pytest.mark.parametrize("projection_kind", [2, 3])
def test_error_classes_match_exactly(projection_kind):
    """The canonical dangling/ambiguous cases raise identical classes."""
    tables = {
        "R": Table(R, [(1, "p", 0.5)]),
        "S": Table(S, [(1, "q")]),
        "T": Table(T, [(1, "r")]),
    }
    query = _query(0, projection_kind, 1)
    naive = _outcome(execute_naive, query, tables)
    compiled = _outcome(execute, query, tables)
    assert naive[0] == "raised"
    assert naive == compiled


# ----------------------------------------------------------------------
# rebinding: one cached plan, many IN-lists
# ----------------------------------------------------------------------

#: where the IN-list(s) stand in a query over R join S; each takes two
#: lists (single-list placements ignore the second)
PLACEMENTS = {
    # pushed down to one side of the join
    "pushdown": lambda first, second: InPredicate(attr("R", "k"), first),
    "negated": lambda first, second: Negation(
        InPredicate(attr("R", "k"), first)
    ),
    "beside_comparison": lambda first, second: conjunction(
        [
            Comparison(attr("R", "k"), ">=", 1),
            InPredicate(attr("R", "k"), first),
        ]
    ),
    # dangling attribute: a deferred raiser, whatever is bound
    "dangling": lambda first, second: InPredicate(
        attr("R", "missing"), first
    ),
    # unqualified reference: evaluated as a residual after the join
    "residual": lambda first, second: InPredicate(attr("a"), first),
    # two lists in one query, one per side of the join
    "two_lists": lambda first, second: conjunction(
        [
            InPredicate(attr("R", "k"), first),
            InPredicate(attr("S", "k"), second),
        ]
    ),
    "two_lists_one_scan": lambda first, second: conjunction(
        [
            InPredicate(attr("R", "k"), first),
            Negation(InPredicate(attr("R", "a"), frozenset({"p"}))),
            InPredicate(attr("R", "k"), second),
        ]
    ),
}

wide_key = st.one_of(st.integers(min_value=0, max_value=11), st.none())
#: at least eight *distinct* rows, so a one-value list is under a
#: quarter of the table (index probe) and a wide one is not (scan)
distinct_r_rows = st.lists(
    st.tuples(wide_key, word, price), min_size=8, max_size=20, unique=True
)
distinct_s_rows = st.lists(
    st.tuples(wide_key, word), min_size=8, max_size=20, unique=True
)
copies = st.lists(
    st.integers(min_value=1, max_value=3), min_size=20, max_size=20
)


def _rebinding_query(placement: str, first, second) -> SPJQuery:
    return SPJQuery(
        relations=(RelationRef("s", "R", "R"), RelationRef("s", "S", "S")),
        projection=(attr("R", "a"), attr("S", "c"), attr("R", "k")),
        joins=(JoinCondition(attr("R", "k"), attr("S", "k")),),
        selection=PLACEMENTS[placement](first, second),
    )


def _outcome_and_probes(executor, query, tables):
    """``_outcome`` plus every index probe the executor made, as
    ``(relation, attribute, values)``."""
    probes = []
    real_probe = Table.probe

    def spying_probe(self, attribute_name, values):
        probes.append((self.schema.name, attribute_name, frozenset(values)))
        return real_probe(self, attribute_name, values)

    with mock.patch.object(Table, "probe", spying_probe):
        outcome = _outcome(executor, query, tables)
    return outcome, probes


@given(
    distinct_r_rows,
    distinct_s_rows,
    copies,
    st.sampled_from(sorted(PLACEMENTS)),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_one_plan_rebinds_exactly(r_data, s_data, counts, placement, data):
    """Empty, one-value (index probe) and wide (scan) lists through one
    cached plan, in sequence and in swapped order: every binding equals
    the naive oracle in bag, result schema and exception class, *and*
    probes the index exactly when the oracle does — a plan that kept
    its first binding fails the former, one that froze its first probe
    choice the latter."""
    tables = {
        name: Table(
            schema, [row for row, n in zip(rows, counts) for _ in range(n)]
        )
        for name, schema, rows in (("R", R, r_data), ("S", S, s_data))
    }
    keys = sorted(
        {row[0] for row in r_data + s_data if row[0] is not None}
    ) or [0]
    one = frozenset({data.draw(st.sampled_from(keys))})
    other = frozenset({data.draw(st.sampled_from(keys))})
    # covers at least a quarter of either table's distinct rows
    wide = frozenset(range(-1, 7)) | one
    empty = frozenset()
    bindings = [
        (empty, wide),
        (one, wide),
        (wide, one),  # the same two lists, swapped
        (other, other),
        (wide, empty),
        (one, wide),  # and back: nothing of (wide, empty) may linger
    ]
    for table in tables.values():
        assert len(wide) * 4 >= table.distinct_count() > len(one) * 4

    plans = PlanCache(Metrics())
    for first, second in bindings:
        query = _rebinding_query(placement, first, second)
        naive = _outcome_and_probes(execute_naive, query, tables)
        compiled = _outcome_and_probes(
            lambda query, tables: execute(query, tables, plans), query, tables
        )
        assert naive == compiled
    assert plans.metrics.plan_cache_recompiles == 1  # one plan did it all


def test_rebinding_takes_both_scan_paths():
    """The property above is not vacuous: on one plan a one-value list
    goes through the index and a wide one does not, in either order."""
    rows = [(key, "p", 0.5) for key in range(12)]
    plans = PlanCache(Metrics())
    for lists in ([{3}, set(range(6)), {4}], [set(range(6)), {3}]):
        table = Table(R, rows)  # fresh: no index yet
        for values in lists:
            query = SPJQuery(
                relations=(RelationRef("s", "R", "R"),),
                projection=(attr("R", "k"),),
                selection=InPredicate(attr("R", "k"), frozenset(values)),
            )
            (outcome, probes) = _outcome_and_probes(
                lambda query, tables: execute(query, tables, plans),
                query,
                {"R": table},
            )
            assert outcome[1] == Counter({(key,): 1 for key in values})
            assert bool(probes) == (len(values) == 1)
    assert len(plans._plans) == 1


# ----------------------------------------------------------------------
# identity projections: adopted, never aliased, in the same order
# ----------------------------------------------------------------------

U = RelationSchema.of("U", [("k", AttributeType.INT)])

#: name -> (aliases, projection); an identity keeps every column of the
#: final layout in place, anything else goes through the per-row loop
SHAPED_PROJECTIONS = {
    "identity": (("R",), (attr("R", "k"), attr("R", "a"), attr("R", "b"))),
    "identity_unqualified": (("R",), (attr("k"), attr("a"), attr("b"))),
    "permutation": (
        ("R",), (attr("R", "a"), attr("R", "k"), attr("R", "b"))
    ),
    "prefix": (("R",), (attr("R", "k"), attr("R", "a"))),
    "repeat": (("R",), (attr("R", "k"), attr("R", "a"), attr("R", "a"))),
    "single_of_one": (("U",), (attr("U", "k"),)),
    "single_of_wider": (("R",), (attr("R", "a"),)),
    "join_in_layout": (
        ("R", "S"),
        (
            attr("R", "k"), attr("R", "a"), attr("R", "b"),
            attr("S", "k"), attr("S", "c"),
        ),
    ),
    "join_out_of_layout": (
        ("R", "S"),
        (
            attr("S", "k"), attr("S", "c"),
            attr("R", "k"), attr("R", "a"), attr("R", "b"),
        ),
    ),
    "dangling": (
        ("R",), (attr("R", "k"), attr("R", "a"), attr("R", "gone"))
    ),
}
IDENTITIES = {
    "identity", "identity_unqualified", "single_of_one", "join_in_layout"
}


def _shaped_query(shape: str, selection: int, threshold: int) -> SPJQuery:
    aliases, projection = SHAPED_PROJECTIONS[shape]
    first = attr(aliases[0], "k")
    return SPJQuery(
        relations=tuple(RelationRef("s", alias, alias) for alias in aliases),
        projection=projection,
        joins=(
            (JoinCondition(attr("R", "k"), attr("S", "k")),)
            if len(aliases) > 1
            else ()
        ),
        selection=[
            conjunction([]),
            Comparison(first, ">=", threshold),
            InPredicate(first, frozenset({threshold})),  # index probe
        ][selection],
    )


def _per_row_projection(projection, columns, resolve, schemas):
    """The projection compiler before identities were adopted: every
    projection, an identity too, is a per-row getter."""
    try:
        positions = [resolve(ref) for ref in projection]
    except RelationalError as exc:
        return None, None, exc
    if len(positions) == 1:
        project = lambda row, _position=positions[0]: (row[_position],)
    else:
        project = operator.itemgetter(*positions)
    kept = [columns[position] for position in positions]
    return project, result_schema(schemas, kept), None


def _ordered(query, tables):
    try:
        table = execute(query, tables)
    except RelationalError as error:
        return ("raised", type(error).__name__)
    return list(table.items()), tuple(table.schema.attribute_names)


@given(
    st.lists(st.tuples(wide_key, word, price), max_size=16),
    s_rows,
    st.lists(st.tuples(wide_key), max_size=16),
    st.sampled_from(sorted(SHAPED_PROJECTIONS)),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=11),
)
@settings(max_examples=200, deadline=None)
def test_identity_projections_adopt_exactly(
    r_data, s_data, u_data, shape, selection, threshold
):
    """Every projection shape: compiled == naive in bag, result schema
    and error class, and the same rows in the same order as the
    per-row projection loop gives."""
    tables = {
        "R": Table(R, r_data),
        "S": Table(S, s_data),
        "U": Table(U, u_data),
    }
    query = _shaped_query(shape, selection, threshold)
    assert_equivalent(query, tables)
    adopted = _ordered(query, tables)
    with mock.patch.object(plan, "_projection", _per_row_projection):
        looped = _ordered(query, tables)
    assert adopted == looped


@pytest.mark.parametrize("shape", sorted(SHAPED_PROJECTIONS))
def test_only_identities_are_adopted(shape):
    """The property above is not vacuous: exactly the identities
    compile to an adopting plan."""
    tables = {"R": Table(R), "S": Table(S), "U": Table(U)}
    schemas = {alias: table.schema for alias, table in tables.items()}
    compiled = compile_plan(_shaped_query(shape, 0, 0), schemas)
    project, _schema, error = compiled.stages[-1].projection(
        compiled.shape.projection
    )
    if shape == "dangling":
        assert error is not None
    else:
        assert (project is None) == (shape in IDENTITIES)


def _assert_answers_own_their_rows():
    """An unfiltered identity scan hands the kernel the table's own
    counts: neither a source commit after ``execute`` nor a write to an
    answer the snapshot cache stored may reach another answer."""
    source = DataSource("s")
    source.create_relation(R, [(1, "p", 0.5), (2, "q", 1.5), (2, "q", 1.5)])
    query = _shaped_query("identity", 0, 0)
    table = source.catalog.table("R")
    stored = execute(query, {"R": table})
    rows = list(stored.items())
    cache = SnapshotCache()
    cache.store(source, query, stored)
    source.commit(DataUpdate.insert(R, [(3, "r", 2.5)]))
    source.commit(DataUpdate.delete(R, [(1, "p", 0.5)]))
    assert list(stored.items()) == rows
    fresh = execute(query, {"R": table})
    extent = list(table.items())
    assert list(fresh.items()) == extent
    stored.insert((9, "z", 0.5))
    stored.delete((2, "q", 1.5))
    assert list(fresh.items()) == extent
    assert list(table.items()) == extent


def test_an_adopted_answer_never_aliases_source_state():
    _assert_answers_own_their_rows()


def test_the_aliasing_guard_catches_an_uncopied_adoption(monkeypatch):
    """Seeded mutation: adopt the rows as handed over, uncopied."""
    projected = plan._projected
    monkeypatch.setattr(
        plan,
        "_projected",
        lambda rows, project: (
            rows if project is None else projected(rows, project)
        ),
    )
    with pytest.raises(AssertionError):
        _assert_answers_own_their_rows()
