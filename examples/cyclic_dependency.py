#!/usr/bin/env python3
"""The cyclic-dependency deadlock of Section 3.5 — and its resolution.

Two schema changes commit at their sources:

* SC1 — the retailer's XML remapping collapses Store+Item into
  StoreItems (would rewrite the view into Query (3));
* SC2 — the library drops Catalog.Review (would rewrite the view into
  Query (4), pulling in ReaderDigest).

Each rewrite is invalid under the *other* change, so the dependency
graph contains a cycle — a maintenance deadlock that cannot be resolved
by aborting (the source updates are committed).  Dyno merges the cycle
into one batch: both changes are combined, the view is rewritten once
into Query (5), and a single adaptation installs the new extent.

Run:  python examples/cyclic_dependency.py
"""

from repro import (
    AttributeReplacement,
    AttributeType,
    CostModel,
    DataSource,
    DropAttribute,
    DynoScheduler,
    JoinCondition,
    MetaKnowledgeBase,
    MultiViewManager,
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
    correct,
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
READER = RelationSchema.of("ReaderDigest", ["Article", "Comments"])
STOREITEMS = RelationSchema.of(
    "StoreItems", ["Store", "Book", "Author", ("Price", AttributeType.FLOAT)]
)


def main() -> None:
    engine = SimEngine(CostModel.paper_default())
    retailer = engine.add_source(DataSource("retailer"))
    library = engine.add_source(DataSource("library"))
    digest = engine.add_source(DataSource("digest"))

    retailer.create_relation(STORE, [(1, "Amazon"), (2, "BN")])
    retailer.create_relation(
        ITEM,
        [(1, "Databases", "Gray", 50.0), (2, "Compilers", "Aho", 40.0)],
    )
    library.create_relation(
        CATALOG,
        [
            ("Databases", "Gray", "CS", "MIT", "good"),
            ("Compilers", "Aho", "CS", "AW", "classic"),
        ],
    )
    digest.create_relation(
        READER, [("Databases", "must read"), ("Compilers", "dragon")]
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
            attr("C", "Category"),
            attr("C", "Review"),
        ),
        joins=(
            JoinCondition(attr("S", "SID"), attr("I", "SID")),
            JoinCondition(attr("I", "Book"), attr("C", "Title")),
        ),
    )

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

    stack = MultiViewManager(engine, [ViewDefinition("BookInfo", query)], mkb)
    manager = stack.manager_for("BookInfo")
    print("original definition (Query 1):")
    print(" ", manager.view.sql())

    # The two autonomously committed, mutually conflicting changes.
    workload = Workload()
    workload.add(
        0.0,
        "retailer",
        FixedUpdate(
            RestructureRelations(
                dropped=("Store", "Item"),
                new_schema=STOREITEMS,
                new_rows=(
                    ("Amazon", "Databases", "Gray", 50.0),
                    ("BN", "Compilers", "Aho", 40.0),
                ),
            )
        ),
    )
    workload.add(
        0.0, "library", FixedUpdate(DropAttribute("Catalog", "Review"))
    )
    engine.schedule_workload(workload)

    # Peek at the scheduler's dependency graph before running: there
    # is a cycle.
    engine.advance_to_next_event()
    scheduler = DynoScheduler(stack, PESSIMISTIC)
    result = correct(stack.umq.messages(), scheduler.substrate.detection())
    print("\ndependency analysis of the queue:")
    print(f"  nodes: {result.node_count}, edges: {result.edge_count}")
    print(f"  cycles merged into batches: {result.merges}")
    for unit in result.units:
        print("  scheduled unit:", unit.describe())

    scheduler.run()

    print("\nrewritten definition (Query 5):")
    print(" ", manager.view.sql())
    print("\nfinal extent:")
    for row in sorted(manager.mv.extent.rows()):
        print("  row:", row)
    print("\n" + check_convergence(manager).summary())


if __name__ == "__main__":
    main()
