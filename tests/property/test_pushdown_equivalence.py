"""Kernel pushdown vs residual-only evaluation (hypothesis).

The compiled kernel (``repro.relational.plan``) splits the selection
into per-alias conjuncts pushed down to the scans
(``_single_alias_conjuncts``) and lets ``_Scan.run`` answer small
IN-lists through the table's hash index (``_choose_probe``).  Both are
pure optimizations: evaluating every conjunct as a post-join residual
filter over full scans must produce the identical counted result.
These tests run the same query through both plans — the shipped one,
and one compiled with nothing pushed down and so no probe — and require
bag-equality, so a conjunct lost or double-applied during the split, or
a probe that keeps rows the scan's filter would drop, shows up
immediately (``test_a_probe_that_skips_the_scan_filter_is_caught``).
"""

from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.relational import plan
from repro.relational.executor import execute
from repro.relational.predicate import (
    TRUE,
    Comparison,
    Conjunction,
    InPredicate,
    Predicate,
    attr,
    conjunction,
)
from repro.relational.query import JoinCondition, RelationRef, SPJQuery
from repro.relational.schema import RelationSchema
from repro.relational.table import Table
from repro.relational.types import AttributeType

R = RelationSchema.of("R", [("k", AttributeType.INT), "a"])
T = RelationSchema.of("T", [("k", AttributeType.INT), "x"])

small_int = st.integers(min_value=0, max_value=5)
word = st.sampled_from(["p", "q", "r"])

r_rows = st.lists(st.tuples(small_int, word), max_size=10)
t_rows = st.lists(st.tuples(small_int, word), max_size=10)
in_values = st.frozensets(small_int, min_size=1, max_size=3)


def _no_split(selection: Predicate):
    """``_single_alias_conjuncts`` replacement: push nothing down."""
    if isinstance(selection, Conjunction):
        return {}, list(selection.children)
    if selection is TRUE:
        return {}, []
    return {}, [selection]


def _without_pushdown(query: SPJQuery, tables: dict[str, Table]) -> Counter:
    """Evaluate through a plan compiled with nothing pushed down: no
    scan filters, so no probe candidates (checked)."""
    schemas = {alias: table.schema for alias, table in tables.items()}
    with mock.patch.object(plan, "_single_alias_conjuncts", _no_split):
        compiled = plan.compile_plan(query, schemas)
        scans = [stage.scan for stage in compiled.stages]
        assert all(scan.filter is None and not scan.probes for scan in scans)
        return as_counter(execute(query, tables))


def _probe_choice(table: Table, alias: str, predicates: list[Predicate]):
    """``(attribute, values)`` the kernel's scan of ``alias`` probes the
    index with under ``predicates`` (pushed down to it), or ``None``."""
    parameters: list[frozenset] = []
    lifted = [predicate.lifted(parameters) for predicate in predicates]
    scan, _columns = plan._compile_scan(alias, table.schema, lifted, [])
    choice = scan._choose_probe(table, tuple(parameters))
    return None if choice is None else (choice[0], choice[2])


def as_counter(table: Table) -> Counter:
    counter: Counter = Counter()
    for row, count in table.items():
        counter[row] += count
    return counter


@given(r_rows, t_rows, in_values, small_int)
@settings(max_examples=80, deadline=None)
def test_join_selection_pushdown_matches_residual(
    r_data, t_data, values, threshold
):
    tables = {"R": Table(R, r_data), "T": Table(T, t_data)}
    query = SPJQuery(
        relations=(RelationRef("s", "R", "R"), RelationRef("s", "T", "T")),
        projection=(attr("R", "a"), attr("T", "x")),
        joins=(JoinCondition(attr("R", "k"), attr("T", "k")),),
        selection=conjunction(
            [
                InPredicate(attr("R", "k"), values),
                Comparison(attr("T", "k"), ">=", threshold),
            ]
        ),
    )
    assert as_counter(execute(query, tables)) == _without_pushdown(
        query, tables
    )


#: a probe whose candidates the scan's other conjunct must filter:
#: key 1 comes back with ``a`` = "p" and "q", and only "p" passes
PROBED_AND_FILTERED = (
    [(key, "p") for key in range(20)] + [(1, "q"), (1, "q")],
    frozenset({1}),
    "p",
)


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=40), word),
        min_size=12,
        max_size=40,
    ),
    st.frozensets(st.integers(min_value=0, max_value=40), min_size=1,
                  max_size=2),
    st.one_of(st.none(), word),
)
@example(*PROBED_AND_FILTERED)
@settings(max_examples=80, deadline=None)
def test_in_list_probe_matches_full_scan(rows, values, also):
    """Wide key domain + tiny IN-list: the regime where the scan elects
    the indexed probe (this is exactly the maintenance-query shape the
    snapshot cache memoizes); ``also`` adds a second conjunct on the
    probed scan, which must filter the probe's candidates."""
    tables = {"R": Table(R, rows)}
    terms = [InPredicate(attr("R", "k"), values)]
    if also is not None:
        terms.append(Comparison(attr("R", "a"), "=", also))
    query = SPJQuery(
        relations=(RelationRef("s", "R", "R"),),
        projection=(attr("R", "k"), attr("R", "a")),
        selection=conjunction(terms),
    )
    assert as_counter(execute(query, tables)) == _without_pushdown(
        query, tables
    )


def test_a_probe_that_skips_the_scan_filter_is_caught(monkeypatch):
    """Seeded mutation: ``_Scan.run``'s probe path returns the
    index's candidates unfiltered."""
    rows, values, also = PROBED_AND_FILTERED
    table = Table(R, rows)
    terms = [
        InPredicate(attr("R", "k"), values),
        Comparison(attr("R", "a"), "=", also),
    ]
    assert _probe_choice(table, "R", terms) == ("k", values)

    def unfiltered_probe(self, table, parameters):
        probe = self._choose_probe(table, parameters)
        if probe is None:
            return plan._filtered(
                table._counts, plan._bound(self.filter, parameters)
            )
        found: dict = {}
        for row, count in table.probe(probe[0], probe[2]):
            found[row] = found.get(row, 0) + count
        return found

    monkeypatch.setattr(plan._Scan, "run", unfiltered_probe)
    with pytest.raises(AssertionError):
        test_in_list_probe_matches_full_scan()


def test_pick_probe_fires_only_when_selective():
    table = Table(R, [(key, "p") for key in range(40)])
    small = [InPredicate(attr("R", "k"), frozenset({1, 2}))]
    assert _probe_choice(table, "R", small) == ("k", frozenset({1, 2}))
    # An IN-list covering a quarter of the table is not worth probing.
    wide = [InPredicate(attr("R", "k"), frozenset(range(10)))]
    assert _probe_choice(table, "R", wide) is None
    # Qualified to a different alias: unusable for this scan.
    other = [InPredicate(attr("T", "k"), frozenset({1}))]
    assert _probe_choice(table, "R", other) is None


def test_pick_probe_prefers_smallest_in_list():
    table = Table(R, [(key, "p") for key in range(40)])
    predicates = [
        InPredicate(attr("R", "k"), frozenset({1, 2, 3})),
        InPredicate(attr("R", "k"), frozenset({7})),
    ]
    assert _probe_choice(table, "R", predicates) == ("k", frozenset({7}))
