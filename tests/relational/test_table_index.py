"""Incremental hash indexes on tables and the executor probe path."""

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
