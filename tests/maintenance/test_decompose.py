"""View-query decomposition into per-source maintenance queries."""

from repro.maintenance.decompose import (
    bfs_alias_order,
    connecting_joins,
    needed_columns,
    probe_query,
    pushdown_selection,
    scan_query,
    selection_within,
    subquery_over,
)
from repro.relational.predicate import (
    TRUE,
    AttrComparison,
    Comparison,
    InPredicate,
    attr,
    conjunction,
)
from repro.relational.query import JoinCondition, RelationRef, SPJQuery
from tests.builders import with_extra_selection
from tests.conftest import bookinfo_query

QUERY = bookinfo_query()


class TestNeededColumns:
    def test_projection_first_then_join_attrs(self):
        columns = needed_columns(QUERY, "I")
        assert columns[0:3] == ("Book", "Author", "Price")
        assert "SID" in columns  # join attribute

    def test_join_only_attrs_included(self):
        assert "SID" in needed_columns(QUERY, "S")
        assert "Title" in needed_columns(QUERY, "C")

    def test_unreferenced_attrs_excluded(self):
        # Catalog.Year is not in the view at all
        assert "Year" not in needed_columns(QUERY, "C")


class TestSelectionSplitting:
    def selective(self) -> SPJQuery:
        return with_extra_selection(
            QUERY,
            conjunction(
                [
                    Comparison(attr("I", "Price"), "<", 100.0),
                    AttrComparison(attr("S", "Store"), "!=", attr("C", "Publisher")),
                ]
            ),
        )

    def test_pushdown_single_alias(self):
        predicate = pushdown_selection(self.selective(), "I")
        assert predicate == Comparison(attr("I", "Price"), "<", 100.0)

    def test_pushdown_none(self):
        assert pushdown_selection(self.selective(), "C") is TRUE

    def test_selection_within(self):
        predicate = selection_within(self.selective(), {"S", "C"})
        assert predicate == AttrComparison(
            attr("S", "Store"), "!=", attr("C", "Publisher")
        )

    def test_selection_within_all(self):
        predicate = selection_within(self.selective(), {"S", "I", "C"})
        assert len(predicate.children) == 2  # type: ignore[attr-defined]


class TestQueryBuilders:
    def test_probe_query_shape(self):
        query = probe_query(QUERY, "C", {"Title": frozenset({"DB"})})
        assert query.relations == (RelationRef("library", "Catalog", "C"),)
        assert any(
            isinstance(p, InPredicate)
            for p in getattr(query.selection, "children", [query.selection])
        )
        assert attr("C", "Publisher") in query.projection
        assert query.joins == ()

    def test_probe_query_multiple_probes(self):
        query = probe_query(
            QUERY,
            "I",
            {"SID": frozenset({1}), "Book": frozenset({"DB"})},
        )
        in_predicates = [
            p
            for p in query.selection.children  # type: ignore[attr-defined]
            if isinstance(p, InPredicate)
        ]
        assert len(in_predicates) == 2

    def test_scan_query_shape(self):
        query = scan_query(QUERY, "S")
        assert query.joins == ()
        assert query.relations[0].relation == "Store"
        assert set(ref.name for ref in query.projection) == {"Store", "SID"}

    def test_subquery_over(self):
        sub = subquery_over(QUERY, ["S", "I"], (attr("I", "Book"),))
        assert set(sub.aliases) == {"S", "I"}
        assert len(sub.joins) == 1  # only S-I join survives
        assert sub.projection == (attr("I", "Book"),)


class TestJoinGraphTraversal:
    def test_bfs_from_middle(self):
        assert bfs_alias_order(QUERY, "I") == ["I", "C", "S"]

    def test_bfs_from_end(self):
        assert bfs_alias_order(QUERY, "S") == ["S", "I", "C"]

    def test_disconnected_alias_appended(self):
        query = SPJQuery(
            relations=QUERY.relations
            + (RelationRef("digest", "ReaderDigest", "R"),),
            projection=QUERY.projection,
            joins=QUERY.joins,  # R not joined to anything
        )
        order = bfs_alias_order(query, "S")
        assert order[-1] == "R"

    def test_connecting_joins(self):
        joins = connecting_joins(QUERY, "C", {"I", "S"})
        assert len(joins) == 1
        assert joins[0].touches("C")

    def test_connecting_joins_none(self):
        assert connecting_joins(QUERY, "C", {"S"}) == []
