"""Incremental hash indexes on tables and the executor probe path.

An index maps each live distinct non-NULL value to its bucket: the row
itself while one distinct row holds the value, a ``set`` once a second
one arrives.  The property below runs op sequences against a brute-force
filter over ``table.items()`` and checks, after every op, that the index
holds exactly one entry per live value; two seeded mutations (a deleted
singleton left in place, a second row overwriting the singleton) must
each fail it on a pinned draw.
"""

import inspect
import textwrap
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.relational import table as table_module
from repro.relational.executor import execute
from repro.relational.predicate import Comparison, InPredicate, attr, conjunction
from repro.relational.query import RelationRef, SPJQuery
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.table import Table
from repro.relational.types import AttributeType

R = RelationSchema.of("R", [("k", AttributeType.INT), "v"])


def big_table(n=200) -> Table:
    return Table(R, [(i, f"v{i % 7}") for i in range(n)])


class TestProbe:
    def test_probe_finds_rows(self):
        table = big_table()
        hits = dict(table.probe("k", [5, 7, 999]))
        assert hits == {(5, "v5"): 1, (7, "v0"): 1}
        assert "k" in table._indexes

    def test_index_lazy(self):
        table = big_table()
        assert "k" not in table._indexes

    def test_index_tracks_inserts(self):
        table = big_table()
        list(table.probe("k", [1]))  # build
        table.insert((1000, "new"))
        assert dict(table.probe("k", [1000])) == {(1000, "new"): 1}

    def test_index_tracks_deletes(self):
        table = big_table()
        list(table.probe("k", [1]))
        table.delete((3, "v3"))
        assert dict(table.probe("k", [3])) == {}

    def test_index_tracks_multiplicity(self):
        table = big_table()
        list(table.probe("k", [4]))
        table.insert((4, "v4"), 2)
        assert dict(table.probe("k", [4])) == {(4, "v4"): 3}
        table.delete((4, "v4"), 2)
        assert dict(table.probe("k", [4])) == {(4, "v4"): 1}

    def test_rename_attribute_migrates_index(self):
        table = big_table()
        list(table.probe("k", [1]))
        table.rename_attribute("k", "key")
        assert "key" in table._indexes
        assert dict(table.probe("key", [1])) == {(1, "v1"): 1}

    def test_drop_attribute_discards_indexes(self):
        table = big_table()
        list(table.probe("v", ["v1"]))
        table.drop_attribute("v")
        assert "v" not in table._indexes

    def test_clear_discards_indexes(self):
        table = big_table()
        list(table.probe("k", [1]))
        table.clear()
        assert "k" not in table._indexes
        assert dict(table.probe("k", [1])) == {}

    def test_copy_has_no_stale_index(self):
        table = big_table()
        list(table.probe("k", [1]))
        duplicate = table.copy()
        duplicate.insert((5000, "x"))
        assert dict(duplicate.probe("k", [5000])) == {(5000, "x"): 1}


class TestExecutorProbePath:
    def query(self, selection) -> SPJQuery:
        return SPJQuery(
            relations=(RelationRef("s", "R", "R"),),
            projection=(attr("R", "k"), attr("R", "v")),
            selection=selection,
        )

    def test_in_list_uses_index(self):
        table = big_table(500)
        query = self.query(InPredicate(attr("R", "k"), frozenset({1, 2})))
        result = execute(query, {"R": table})
        assert sorted(result.rows()) == [(1, "v1"), (2, "v2")]
        assert "k" in table._indexes

    def test_residual_conjuncts_still_applied(self):
        table = big_table(500)
        query = self.query(
            conjunction(
                [
                    InPredicate(attr("R", "k"), frozenset({1, 2, 3})),
                    Comparison(attr("R", "v"), "=", "v2"),
                ]
            )
        )
        result = execute(query, {"R": table})
        assert result.rows() == [(2, "v2")]

    def test_large_in_list_falls_back_to_scan(self):
        table = big_table(10)
        query = self.query(
            InPredicate(attr("R", "k"), frozenset(range(9)))
        )
        result = execute(query, {"R": table})
        assert len(result) == 9
        assert "k" not in table._indexes  # scan path: no index built

    def test_probe_result_matches_scan_result(self):
        table = big_table(500)
        query = self.query(
            InPredicate(attr("R", "k"), frozenset(range(0, 50, 5)))
        )
        probed = execute(query, {"R": table})
        # force the scan path on an index-free copy with a big IN list
        fresh = table.copy()
        scanned = execute(
            self.query(
                InPredicate(attr("R", "k"), frozenset(range(0, 50, 5)))
            ),
            {"R": fresh},
        )
        assert probed == scanned


class TestBucketShape:
    def test_a_lone_row_is_its_own_bucket_until_a_second_arrives(self):
        table = big_table(10)
        list(table.probe("k", [1]))
        buckets = table._indexes["k"][1]
        assert buckets[1] == (1, "v1")
        table.insert((1, "other"))
        assert buckets[1] == {(1, "v1"), (1, "other")}

    def test_probe_order_is_the_set_built_in_add_order(self):
        # Rows sharing a value come out in the order of a ``set`` the
        # rows were added to one by one, on the lazy build and on
        # incremental inserts alike.
        rows = [(i % 3, f"v{i}") for i in range(40)]
        lazy = Table(R, rows)
        grown = Table(R, rows[:3])
        list(grown.probe("k", [0]))
        for row in rows[3:]:
            grown.insert(row)
        for value in range(3):
            expected = {row for row in rows if row[0] == value}
            assert [row for row, _ in lazy.probe("k", [value])] == list(
                expected
            )
            assert [row for row, _ in grown.probe("k", [value])] == list(
                expected
            )

    def test_a_unique_key_index_holds_rows_not_sets(self):
        # 2000 one-row buckets: a dict of rows (~72 KiB here), where a
        # set per value took ~494 KiB.
        table = Table(R, [(i, f"v{i}") for i in range(2000)])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            list(table.probe("k", [1]))
            size = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert size < 128 * 1024


# ----------------------------------------------------------------------
# the index against a brute-force filter (hypothesis)
# ----------------------------------------------------------------------

#: the probed column's values: unique and repeated ones, and NULL
KEYS = (None, 0, 1, 2)
#: every probe asks for all of them, and for one no row holds
PROBED = (None, 0, 1, 2, 3)
NAMES = ("k", "kk")

ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"),
            st.sampled_from(KEYS),
            st.integers(0, 7),
            st.integers(1, 3),
        ),
        st.tuples(st.just("delete"), st.integers(0, 15), st.booleans()),
        st.sampled_from(
            [("rename",), ("add",), ("drop",), ("copy",), ("clear",)]
        ),
    ),
    max_size=30,
)


def _apply(table: Table, op: tuple) -> Table:
    """``op`` on ``table``; returns the table to go on with."""
    kind = op[0]
    if kind == "insert":
        _, key, tail, count = op
        rest = tuple(
            ("x", "y", None)[(tail >> position) % 3]
            for position in range(table.schema.arity - 1)
        )
        table.insert((key,) + rest, count)
    elif kind == "delete":
        live = sorted(table.items(), key=repr)
        if live:
            row, present = live[op[1] % len(live)]
            table.delete(row, present if op[2] else 1)
    elif kind == "rename":
        old = table.schema.attributes[0].name
        table.rename_attribute(old, NAMES[1 - NAMES.index(old)])
    elif kind == "add":
        table.add_attribute(Attribute(f"w{table.schema.arity}"), "x")
    elif kind == "drop":
        if table.schema.arity > 2:
            table.drop_attribute(table.schema.attributes[-1].name)
    elif kind == "copy":
        return table.copy()
    else:
        table.clear()
    return table


def _assert_index_exact(table: Table) -> None:
    """An index, where one is built, holds one entry per live distinct
    non-NULL value: the row itself or a set of every row holding it."""
    name = table.schema.attributes[0].name
    if name not in table._indexes:
        return
    position, buckets = table._indexes[name]
    expected: dict = {}
    for row, _count in table.items():
        if row[position] is not None:
            expected.setdefault(row[position], set()).add(row)
    assert buckets.keys() == expected.keys()
    for value, rows in expected.items():
        bucket = buckets[value]
        assert (bucket if type(bucket) is set else {bucket}) == rows


def _assert_probes_like_a_filter(sequence) -> None:
    table = Table(R)
    for op in sequence:
        table = _apply(table, op)
        _assert_index_exact(table)
        name = table.schema.attributes[0].name
        expected = {
            row: count
            for row, count in table.items()
            if row[0] is not None and row[0] in PROBED
        }
        assert dict(table.probe(name, PROBED)) == expected
        _assert_index_exact(table)


#: one row under value 1, probed (the index is built), then deleted
DELETED_SINGLETON = [("insert", 1, 0, 1), ("delete", 0, True)]
#: a second row arrives under value 1 after the index is built
SECOND_ROW = [("insert", 1, 0, 2), ("insert", 1, 1, 1)]


@given(sequence=ops)
@example(sequence=DELETED_SINGLETON)
@example(sequence=SECOND_ROW)
@settings(max_examples=200, deadline=None)
def test_probe_equals_a_filter_over_the_items(sequence):
    _assert_probes_like_a_filter(sequence)


def _mutated(function, old, new):
    """A function of ``repro.relational.table`` (a ``Table`` method
    included) recompiled with ``old`` replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1, old
    namespace = dict(vars(table_module))
    exec(
        compile(source.replace(old, new), table_module.__file__, "exec"),
        namespace,
    )
    return namespace[function.__name__]


#: mutation -> (the pinned draw it fails on, where the function lives,
#: its name, old text, new text)
MUTATIONS = {
    "deleted_singleton_left_in_place": (
        DELETED_SINGLETON,
        Table,
        "delete",
        "if bucket is not None:",
        "if type(bucket) is set:",
    ),
    "second_row_overwrites_the_singleton": (
        SECOND_ROW,
        table_module,
        "_index",
        "buckets[value] = {bucket, row}",
        "buckets[value] = row",
    ),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_each_seeded_mutation_fails_the_property(monkeypatch, mutation):
    pinned, owner, name, old, new = MUTATIONS[mutation]
    monkeypatch.setattr(owner, name, _mutated(vars(owner)[name], old, new))
    with pytest.raises(AssertionError):
        _assert_probes_like_a_filter(pinned)
