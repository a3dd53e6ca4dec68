"""Executor vs a brute-force nested-loop oracle (hypothesis); selections
are read by the oracle's three-valued ``holds``."""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.executor import execute
from repro.relational.predicate import Comparison, attr, conjunction
from repro.relational.query import JoinCondition, RelationRef, SPJQuery
from repro.relational.schema import RelationSchema
from repro.relational.table import Table
from repro.relational.types import AttributeType
from tests.kernel_oracle import holds

R = RelationSchema.of("R", [("k", AttributeType.INT), "a"])
T = RelationSchema.of("T", [("k", AttributeType.INT), "x"])
U = RelationSchema.of("U", [("j", AttributeType.INT), "y"])

small_int = st.integers(min_value=0, max_value=3)
word = st.sampled_from(["p", "q", "r"])

r_rows = st.lists(st.tuples(small_int, word), max_size=8)
t_rows = st.lists(st.tuples(small_int, word), max_size=8)
u_rows = st.lists(st.tuples(small_int, word), max_size=8)


def brute_force(query: SPJQuery, tables: dict[str, Table]) -> Counter:
    """Nested-loop reference evaluation with bag semantics."""
    aliases = list(query.aliases)
    columns: list = []
    for alias in aliases:
        for attribute in tables[alias].schema:
            columns.append((alias, attribute.name))

    def rows_of(alias):
        return list(tables[alias])

    def all_combos(index):
        if index == len(aliases):
            yield ()
            return
        for row in rows_of(aliases[index]):
            for rest in all_combos(index + 1):
                yield (row,) + rest

    def binding_for(combo):
        flat = [value for row in combo for value in row]

        def binding(ref):
            matches = [
                i
                for i, (alias, name) in enumerate(columns)
                if name == ref.name
                and (ref.relation is None or ref.relation == alias)
            ]
            return flat[matches[0]]

        return binding

    result: Counter = Counter()
    for combo in all_combos(0):
        binding = binding_for(combo)
        if not all(
            binding(join.left) == binding(join.right)
            for join in query.joins
        ):
            continue
        if not holds(query.selection, binding):
            continue
        projected = tuple(binding(ref) for ref in query.projection)
        result[projected] += 1
    return result


def as_counter(table: Table) -> Counter:
    counter: Counter = Counter()
    for row, count in table.items():
        counter[row] += count
    return counter


@given(r_rows, t_rows)
@settings(max_examples=60, deadline=None)
def test_two_way_join_matches_oracle(r_data, t_data):
    tables = {"R": Table(R, r_data), "T": Table(T, t_data)}
    query = SPJQuery(
        relations=(RelationRef("s", "R", "R"), RelationRef("s", "T", "T")),
        projection=(attr("R", "a"), attr("T", "x")),
        joins=(JoinCondition(attr("R", "k"), attr("T", "k")),),
    )
    assert as_counter(execute(query, tables)) == brute_force(query, tables)


@given(r_rows, t_rows, st.integers(min_value=0, max_value=3))
@settings(max_examples=60, deadline=None)
def test_join_with_selection_matches_oracle(r_data, t_data, threshold):
    tables = {"R": Table(R, r_data), "T": Table(T, t_data)}
    query = SPJQuery(
        relations=(RelationRef("s", "R", "R"), RelationRef("s", "T", "T")),
        projection=(attr("R", "k"), attr("T", "x")),
        joins=(JoinCondition(attr("R", "k"), attr("T", "k")),),
        selection=conjunction(
            [Comparison(attr("R", "k"), ">=", threshold)]
        ),
    )
    assert as_counter(execute(query, tables)) == brute_force(query, tables)


@given(r_rows, t_rows, u_rows)
@settings(max_examples=40, deadline=None)
def test_three_way_chain_matches_oracle(r_data, t_data, u_data):
    tables = {
        "R": Table(R, r_data),
        "T": Table(T, t_data),
        "U": Table(U, u_data),
    }
    query = SPJQuery(
        relations=(
            RelationRef("s", "R", "R"),
            RelationRef("s", "T", "T"),
            RelationRef("s", "U", "U"),
        ),
        projection=(attr("R", "a"), attr("U", "y")),
        joins=(
            JoinCondition(attr("R", "k"), attr("T", "k")),
            JoinCondition(attr("T", "k"), attr("U", "j")),
        ),
    )
    assert as_counter(execute(query, tables)) == brute_force(query, tables)


@given(r_rows, u_rows)
@settings(max_examples=40, deadline=None)
def test_cartesian_product_matches_oracle(r_data, u_data):
    tables = {"R": Table(R, r_data), "U": Table(U, u_data)}
    query = SPJQuery(
        relations=(
            RelationRef("s", "R", "R"),
            RelationRef("s", "U", "U"),
        ),
        projection=(attr("R", "a"), attr("U", "y")),
    )
    assert as_counter(execute(query, tables)) == brute_force(query, tables)
