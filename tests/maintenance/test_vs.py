"""View synchronization: the paper's rewritings (Queries 3, 4, 5)."""

import pytest

from repro.maintenance.vs import (
    ViewSynchronizationError,
    ViewSynchronizer,
)
from repro.relational.predicate import Comparison, attr
from repro.relational.query import RelationRef, SPJQuery
from repro.relational.schema import Attribute, RelationSchema
from repro.sources.messages import (
    AddAttribute,
    CreateRelation,
    DataUpdate,
    DropAttribute,
    DropRelation,
    RenameAttribute,
    RenameRelation,
    RestructureRelations,
    UpdateMessage,
)
from repro.views.definition import ViewDefinition
from tests.builders import with_extra_selection
from tests.conftest import (
    ITEM_SCHEMA,
    STOREITEMS_SCHEMA,
    bookinfo_query,
    bookstore_mkb,
)


def view() -> ViewDefinition:
    return ViewDefinition("BookInfo", bookinfo_query())


def synchronizer() -> ViewSynchronizer:
    return ViewSynchronizer(bookstore_mkb())


def message(source: str, payload) -> UpdateMessage:
    return UpdateMessage(source, 1, 0.0, payload)


class TestRenames:
    def test_rename_relation(self):
        result = synchronizer().synchronize(
            view(), message("retailer", RenameRelation("Item", "Items2"))
        )
        assert result.report.changed
        assert result.definition.version == 2
        assert result.definition.query.references_relation(
            "retailer", "Items2"
        )

    def test_rename_relation_not_in_view_noop(self):
        result = synchronizer().synchronize(
            view(), message("retailer", RenameRelation("Other", "O2"))
        )
        assert not result.report.changed
        assert result.definition.version == 1

    def test_rename_attribute(self):
        result = synchronizer().synchronize(
            view(),
            message("library", RenameAttribute("Catalog", "Title", "Name")),
        )
        query = result.definition.query
        assert attr("C", "Name") in query.joins[1].references()

    def test_rename_attribute_not_referenced_noop(self):
        result = synchronizer().synchronize(
            view(),
            message("library", RenameAttribute("Catalog", "Year", "Yr")),
        )
        assert not result.report.changed


class TestAdditions:
    def test_add_attribute_noop(self):
        result = synchronizer().synchronize(
            view(),
            message("library", AddAttribute("Catalog", Attribute("Year"))),
        )
        assert not result.report.changed

    def test_create_relation_noop(self):
        result = synchronizer().synchronize(
            view(),
            message(
                "library",
                CreateRelation(RelationSchema.of("New", ["a"])),
            ),
        )
        assert not result.report.changed

    def test_non_schema_change_rejected(self):
        with pytest.raises(ViewSynchronizationError):
            synchronizer().synchronize(
                view(),
                message("library", DataUpdate.insert(ITEM_SCHEMA, [])),
            )


class TestDropAttribute:
    def test_replacement_produces_query_4(self):
        """Dropping Catalog.Review pulls in ReaderDigest (Query 4)."""
        result = synchronizer().synchronize(
            view(), message("library", DropAttribute("Catalog", "Review"))
        )
        query = result.definition.query
        assert query.references_relation("digest", "ReaderDigest")
        # Review is now sourced from the digest alias
        new_alias = [
            ref.alias for ref in query.relations if ref.relation == "ReaderDigest"
        ][0]
        assert attr(new_alias, "Comments") in query.projection
        # the join C.Title = R.Article was added
        assert any(
            {ref.name for ref in join.references()} == {"Title", "Article"}
            for join in query.joins
        )

    def test_prune_without_replacement(self):
        result = synchronizer().synchronize(
            view(), message("library", DropAttribute("Catalog", "Publisher"))
        )
        query = result.definition.query
        assert attr("C", "Publisher") not in query.projection
        assert "C.Publisher" in result.report.pruned_attributes

    def test_prune_unreferenced_noop(self):
        result = synchronizer().synchronize(
            view(), message("library", DropAttribute("Catalog", "Year"))
        )
        assert not result.report.changed

    def test_prune_removes_selection_terms(self):
        selective = ViewDefinition(
            "V",
            with_extra_selection(
                bookinfo_query(),
                Comparison(attr("C", "Publisher"), "=", "MIT"),
            ),
        )
        result = synchronizer().synchronize(
            selective,
            message("library", DropAttribute("Catalog", "Publisher")),
        )
        assert result.definition.query.selection.references() == frozenset()

    def test_dropped_join_attribute_removes_relation(self):
        # Catalog.Title is a join attribute with no declared stand-in:
        # the whole Catalog relation is evolved out of the view.
        result = synchronizer().synchronize(
            view(), message("library", DropAttribute("Catalog", "Title"))
        )
        query = result.definition.query
        assert not query.references_relation("library", "Catalog")
        assert "C" in result.report.removed_relations


class TestDropRelation:
    def test_multi_relation_replacement_produces_query_3(self):
        """Store+Item collapse into StoreItems (Query 3)."""
        result = synchronizer().synchronize(
            view(), message("retailer", DropRelation("Store"))
        )
        query = result.definition.query
        assert query.references_relation("retailer", "StoreItems")
        assert not query.references_relation("retailer", "Store")
        assert not query.references_relation("retailer", "Item")
        # internal join S.SID = I.SID is gone; external join survives
        assert len(query.joins) == 1
        join_names = {ref.name for ref in query.joins[0].references()}
        assert join_names == {"Book", "Title"}
        assert len(query.relations) == 2

    def test_drop_without_replacement_removes_relation(self):
        plain = ViewSynchronizer()  # empty MKB
        result = plain.synchronize(
            view(), message("library", DropRelation("Catalog"))
        )
        query = result.definition.query
        assert not query.references_relation("library", "Catalog")
        assert len(query.relations) == 2

    def test_drop_unreferenced_noop(self):
        result = synchronizer().synchronize(
            view(), message("retailer", DropRelation("Warehouse"))
        )
        assert not result.report.changed


class TestRestructure:
    def test_restructure_uses_mkb_rule(self):
        change = RestructureRelations(
            dropped=("Store", "Item"), new_schema=STOREITEMS_SCHEMA
        )
        result = synchronizer().synchronize(
            view(), message("retailer", change)
        )
        assert result.definition.query.references_relation(
            "retailer", "StoreItems"
        )

    def test_restructure_auto_rule_without_mkb(self):
        from repro.relational.table import Table

        plain = ViewSynchronizer()
        change = RestructureRelations(
            dropped=("Store", "Item"), new_schema=STOREITEMS_SCHEMA
        )
        # dropped extents drive the auto attribute mapping
        change.dropped_extents["Store"] = Table(
            RelationSchema.of("Store", ["SID", "Store"])
        )
        change.dropped_extents["Item"] = Table(ITEM_SCHEMA)
        result = plain.synchronize(view(), message("retailer", change))
        query = result.definition.query
        assert query.references_relation("retailer", "StoreItems")
        assert any("auto-derived" in note for note in result.report.notes)


class TestSchemaValidation:
    def test_unmappable_attributes_pruned_with_lookup(self):
        # StoreItems lacks "SID"; with a schema lookup the substitution
        # validates and prunes accordingly (SID only occurs in the
        # internal join, which is dropped anyway).
        def lookup(source, relation):
            if relation == "StoreItems":
                return STOREITEMS_SCHEMA
            return None

        sync = ViewSynchronizer(bookstore_mkb(), schema_lookup=lookup)
        result = sync.synchronize(
            view(), message("retailer", DropRelation("Item"))
        )
        query = result.definition.query
        assert query.references_relation("retailer", "StoreItems")
        for ref in query.all_attribute_refs():
            if ref.relation == "S":
                assert ref.name in STOREITEMS_SCHEMA


class TestErrorPaths:
    def test_attribute_replacement_without_anchor_falls_back_to_prune(self):
        """The MKB stand-in needs a join anchor; when the anchor relation
        is not in the view, synchronization degrades to pruning."""
        from repro.relational.predicate import attr as attr_
        from repro.relational.query import RelationRef, SPJQuery

        # A view over Catalog alone: Title (the anchor) is present but
        # we remove the anchor RELATION by declaring the rule against a
        # different one.
        from repro.sources.mkb import AttributeReplacement, MetaKnowledgeBase

        mkb = MetaKnowledgeBase()
        mkb.add_attribute_replacement(
            AttributeReplacement(
                source="library",
                relation="Catalog",
                attribute="Review",
                new_source="digest",
                new_relation="ReaderDigest",
                new_attribute="Comments",
                join_on=("NotInView", "Title"),
                join_attribute="Article",
            )
        )
        query = SPJQuery(
            relations=(RelationRef("library", "Catalog", "C"),),
            projection=(attr_("C", "Title"), attr_("C", "Review")),
        )
        sync = ViewSynchronizer(mkb)
        result = sync.synchronize(
            ViewDefinition("V", query),
            message("library", DropAttribute("Catalog", "Review")),
        )
        assert attr_("C", "Review") not in result.definition.query.projection
        assert any("needs relation" in note for note in result.report.notes)

    def test_dropping_only_projected_attribute_raises(self):
        from repro.relational.predicate import attr as attr_
        from repro.relational.query import RelationRef, SPJQuery

        query = SPJQuery(
            relations=(RelationRef("library", "Catalog", "C"),),
            projection=(attr_("C", "Review"),),
        )
        sync = ViewSynchronizer()
        with pytest.raises(ViewSynchronizationError):
            sync.synchronize(
                ViewDefinition("V", query),
                message("library", DropAttribute("Catalog", "Review")),
            )

    def test_dropping_only_relation_raises(self):
        from repro.relational.predicate import attr as attr_
        from repro.relational.query import RelationRef, SPJQuery

        query = SPJQuery(
            relations=(RelationRef("library", "Catalog", "C"),),
            projection=(attr_("C", "Title"),),
        )
        sync = ViewSynchronizer()  # no replacement rule
        with pytest.raises(ViewSynchronizationError):
            sync.synchronize(
                ViewDefinition("V", query),
                message("library", DropRelation("Catalog")),
            )
