#!/usr/bin/env python3
"""The broken-query anomaly (Example 1.b) — naive vs Dyno.

Act 1: the retailer re-tunes its XML-to-relational mapping, collapsing
Store and Item into a single StoreItems table (Figure 2).  A maintenance
query built from the old schema knowledge breaks.  The naive FIFO view
manager drops the in-flight update on the floor; Dyno detects the unsafe
dependency, reorders (synchronizing the view into the Query (3) form
first) and never sends the doomed query.

Act 2: a cascade — a second schema change breaks the *first schema
change's* maintenance.  The naive manager skips it, leaving the view
definition permanently stale, so every later maintenance query breaks
too and the view diverges from the sources for good.  Dyno merges the
conflicting changes and converges.

Run:  python examples/broken_query_demo.py
"""

from repro import (
    AttributeType,
    CostModel,
    DataSource,
    DataUpdate,
    DynoScheduler,
    JoinCondition,
    MetaKnowledgeBase,
    MultiViewManager,
    NAIVE,
    PESSIMISTIC,
    RelationRef,
    RelationReplacement,
    RelationSchema,
    RestructureRelations,
    SPJQuery,
    SimEngine,
    ViewDefinition,
    Workload,
    attr,
    check_convergence,
)
from repro.sources import FixedUpdate

STORE = RelationSchema.of("Store", [("SID", AttributeType.INT), "Store"])
ITEM = RelationSchema.of(
    "Item",
    [
        ("SID", AttributeType.INT),
        "Book",
        "Author",
        ("Price", AttributeType.FLOAT),
    ],
)
CATALOG = RelationSchema.of(
    "Catalog", ["Title", "Author", "Category", "Publisher", "Review"]
)
STOREITEMS = RelationSchema.of(
    "StoreItems", ["Store", "Book", "Author", ("Price", AttributeType.FLOAT)]
)


def build(strategy_name: str) -> tuple[SimEngine, MultiViewManager]:
    engine = SimEngine(CostModel.paper_default())
    retailer = engine.add_source(DataSource("retailer"))
    library = engine.add_source(DataSource("library"))
    retailer.create_relation(STORE, [(1, "Amazon")])
    retailer.create_relation(ITEM, [(1, "Databases", "Gray", 50.0)])
    library.create_relation(
        CATALOG, [("Databases", "Gray", "CS", "MIT", "good")]
    )

    query = SPJQuery(
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
            attr("C", "Review"),
        ),
        joins=(
            JoinCondition(attr("S", "SID"), attr("I", "SID")),
            JoinCondition(attr("I", "Book"), attr("C", "Title")),
        ),
    )
    # The MKB knows StoreItems can stand in for Store ⋈ Item.
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
    stack = MultiViewManager(engine, [ViewDefinition("BookInfo", query)], mkb)
    return engine, stack


def workload() -> Workload:
    items = Workload()
    # A new book arrives at the library (the update being maintained)...
    items.add(
        0.0,
        "library",
        FixedUpdate(
            DataUpdate.insert(
                CATALOG,
                [
                    (
                        "Data Integration Guide",
                        "Adams",
                        "Eng",
                        "Princeton",
                        "new",
                    )
                ],
            )
        ),
    )
    # ...and at (nearly) the same instant the retailer restructures.
    items.add(
        0.0,
        "retailer",
        FixedUpdate(
            RestructureRelations(
                dropped=("Store", "Item"),
                new_schema=STOREITEMS,
                new_rows=(
                    ("Amazon", "Databases", "Gray", 50.0),
                    ("Amazon", "Data Integration Guide", "Adams", 35.99),
                ),
            )
        ),
    )
    return items


def cascade_workload() -> Workload:
    """Act 2: SC breaks M(SC) and the naive manager never recovers."""
    from repro import DropAttribute, RenameRelation

    items = Workload()
    items.add(
        0.0, "library", FixedUpdate(DropAttribute("Catalog", "Review"))
    )
    # Commits while the drop's view adaptation is scanning Item:
    items.add(
        3.5, "retailer", FixedUpdate(RenameRelation("Item", "Items2"))
    )
    # A later data update (against the post-drop 4-column schema):
    # lost by naive, whose maintenance queries still use stale names.
    post_drop_catalog = CATALOG.drop_attribute("Review")
    items.add(
        30.0,
        "library",
        FixedUpdate(
            DataUpdate.insert(
                post_drop_catalog,
                [("Data Integration Guide", "Adams", "E", "P")],
            )
        ),
    )
    return items


def run(strategy, label: str, items: Workload, cost=None) -> None:
    engine, stack = build(label) if cost is None else build_with(cost)
    engine.schedule_workload(items)
    stats = DynoScheduler(stack, strategy).run()
    manager = stack.manager_for("BookInfo")
    report = check_convergence(manager)
    print(f"--- {label} ---")
    print("  final definition:", manager.view.query.sql())
    print(
        f"  broken queries: {engine.metrics.broken_queries}, "
        f"skipped updates: {stats.skipped_updates}, "
        f"cycle merges: {engine.metrics.cycle_merges}"
    )
    print(" ", report.summary())
    for row in sorted(manager.mv.extent.rows()):
        print("  row:", row)
    print()


def build_with(cost) -> tuple[SimEngine, MultiViewManager]:
    engine, stack = build("cascade")
    engine.cost_model = cost
    return engine, stack


def main() -> None:
    print("=== Act 1: restructuring breaks a DU maintenance ===\n")
    run(NAIVE, "naive FIFO (pre-Dyno state of the art)", workload())
    run(PESSIMISTIC, "Dyno (pessimistic)", workload())

    print("=== Act 2: a cascade of broken schema-change maintenance ===\n")
    slow = CostModel(query_base=1.0)
    run(NAIVE, "naive FIFO — diverges permanently", cascade_workload(), slow)
    run(PESSIMISTIC, "Dyno (pessimistic)", cascade_workload(), slow)


if __name__ == "__main__":
    main()
