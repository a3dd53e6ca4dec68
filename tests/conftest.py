"""Shared fixtures: the paper's bookstore scenario and a tiny testbed."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro import (
    AttributeReplacement,
    AttributeType,
    CostModel,
    DataSource,
    JoinCondition,
    MetaKnowledgeBase,
    MultiViewManager,
    RelationRef,
    RelationReplacement,
    RelationSchema,
    SPJQuery,
    SimEngine,
    ViewDefinition,
    attr,
)
from tests.builders import free_cost_model

# Two Hypothesis profiles.  ``tier1`` (the default) draws the same
# examples on every run, so two runs report the same pass set.
# ``explore`` (``pytest --hypothesis-profile explore``) draws fresh ones,
# ten times each test's ``max_examples``; a failure prints its falsifying
# example, which is the ``@example`` line to pin.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile("tier1")

EXPLORE_FACTOR = 10


def pytest_collection_modifyitems(config, items):
    """Under ``explore``, scale every property test's own budget (the
    profile cannot: a test's ``@settings`` overrides it)."""
    if config.getoption("hypothesis_profile", None) != "explore":
        return
    for test in {getattr(item.obj, "__func__", item.obj) for item in items}:
        own = getattr(test, "_hypothesis_internal_use_settings", None)
        if own is not None and hasattr(test, "hypothesis"):
            test._hypothesis_internal_use_settings = settings(
                own, max_examples=own.max_examples * EXPLORE_FACTOR
            )


STORE_SCHEMA = RelationSchema.of(
    "Store", [("SID", AttributeType.INT), "Store"]
)
ITEM_SCHEMA = RelationSchema.of(
    "Item",
    [
        ("SID", AttributeType.INT),
        "Book",
        "Author",
        ("Price", AttributeType.FLOAT),
    ],
)
CATALOG_SCHEMA = RelationSchema.of(
    "Catalog", ["Title", "Author", "Category", "Publisher", "Review"]
)
READER_SCHEMA = RelationSchema.of("ReaderDigest", ["Article", "Comments"])
STOREITEMS_SCHEMA = RelationSchema.of(
    "StoreItems",
    ["Store", "Book", "Author", ("Price", AttributeType.FLOAT)],
)


def bookinfo_query() -> SPJQuery:
    """The BookInfo view of Query (1)."""
    return SPJQuery(
        relations=(
            RelationRef("retailer", "Store", "S"),
            RelationRef("retailer", "Item", "I"),
            RelationRef("library", "Catalog", "C"),
        ),
        projection=(
            attr("S", "Store"),
            attr("I", "Book"),
            attr("I", "Author"),
            attr("I", "Price"),
            attr("C", "Publisher"),
            attr("C", "Category"),
            attr("C", "Review"),
        ),
        joins=(
            JoinCondition(attr("S", "SID"), attr("I", "SID")),
            JoinCondition(attr("I", "Book"), attr("C", "Title")),
        ),
    )


def bookstore_mkb() -> MetaKnowledgeBase:
    """Replacement knowledge for the paper's rewritings (Queries 3-5)."""
    mkb = MetaKnowledgeBase()
    mkb.add_relation_replacement(
        RelationReplacement(
            source="retailer",
            covers=("Store", "Item"),
            new_source="retailer",
            new_relation="StoreItems",
            attr_map={
                ("Store", "Store"): "Store",
                ("Item", "Book"): "Book",
                ("Item", "Author"): "Author",
                ("Item", "Price"): "Price",
            },
        )
    )
    mkb.add_attribute_replacement(
        AttributeReplacement(
            source="library",
            relation="Catalog",
            attribute="Review",
            new_source="digest",
            new_relation="ReaderDigest",
            new_attribute="Comments",
            join_on=("Catalog", "Title"),
            join_attribute="Article",
        )
    )
    return mkb


def build_bookstore(
    cost_model: CostModel | None = None,
) -> tuple[SimEngine, MultiViewManager]:
    """Three sources, the BookInfo view, and the replacement MKB, behind
    one stack (no scheduler: each test drives it as it needs)."""
    engine = SimEngine(cost_model or CostModel.paper_default())
    retailer = engine.add_source(DataSource("retailer"))
    library = engine.add_source(DataSource("library"))
    digest = engine.add_source(DataSource("digest"))
    retailer.create_relation(STORE_SCHEMA, [(1, "Amazon"), (2, "BN")])
    retailer.create_relation(
        ITEM_SCHEMA,
        [(1, "Databases", "Gray", 50.0), (2, "Compilers", "Aho", 40.0)],
    )
    library.create_relation(
        CATALOG_SCHEMA,
        [
            ("Databases", "Gray", "CS", "MIT", "good"),
            ("Compilers", "Aho", "CS", "AW", "classic"),
        ],
    )
    digest.create_relation(
        READER_SCHEMA,
        [
            ("Databases", "must read"),
            ("Compilers", "dragon"),
            ("Data Integration Guide", "timely"),
        ],
    )
    stack = MultiViewManager(
        engine, [ViewDefinition("BookInfo", bookinfo_query())], bookstore_mkb()
    )
    return engine, stack


@pytest.fixture
def bookstore() -> tuple[SimEngine, MultiViewManager]:
    return build_bookstore()


@pytest.fixture
def bookstore_free() -> tuple[SimEngine, MultiViewManager]:
    """Bookstore with a zero-cost model (pure-logic tests)."""
    return build_bookstore(free_cost_model())
