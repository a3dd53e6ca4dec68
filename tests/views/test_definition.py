"""View definitions: versioning, SQL, result schema derivation."""

import pytest

from repro.relational.types import AttributeType
from repro.views.definition import ViewDefinition
from tests.conftest import bookinfo_query, build_bookstore


def test_rewritten_bumps_version():
    view = ViewDefinition("BookInfo", bookinfo_query())
    query = view.query.with_relation_renamed("retailer", "Item", "Item2")
    rewritten = view.rewritten(query)
    assert rewritten.version == 2
    assert view.version == 1
    assert rewritten.name == "BookInfo"


def test_sql_renders_create_view():
    view = ViewDefinition("BookInfo", bookinfo_query())
    assert view.sql().startswith("CREATE VIEW BookInfo AS SELECT")
    assert "Store S, Item I, Catalog C" in view.sql()


def test_result_schema_resolves_types():
    engine, stack = build_bookstore()
    [manager] = stack.view_managers()
    schema = manager.view.result_schema(engine.sources)
    assert schema.name == "BookInfo"
    assert schema.attribute("Price").type is AttributeType.FLOAT
    assert schema.attribute_names == (
        "Store",
        "Book",
        "Author",
        "Price",
        "Publisher",
        "Category",
        "Review",
    )


def test_result_schema_qualifies_collisions():
    from repro.relational.predicate import attr
    from repro.relational.query import SPJQuery

    engine, stack = build_bookstore()
    [manager] = stack.view_managers()
    query = manager.view.query
    collided = SPJQuery(
        relations=query.relations,
        projection=(attr("I", "Author"), attr("C", "Author")),
        joins=query.joins,
    )
    view = ViewDefinition("V", collided)
    schema = view.result_schema(engine.sources)
    assert schema.attribute_names == ("I_Author", "C_Author")


def test_repr_mentions_version():
    view = ViewDefinition("BookInfo", bookinfo_query())
    assert "v1" in repr(view)
