#!/usr/bin/env python3
"""Quickstart: the paper's bookstore view, one data update, one schema
change, maintained by Dyno.

Run:  python examples/quickstart.py
"""

from repro import (
    AttributeType,
    CostModel,
    DataSource,
    DataUpdate,
    DropAttribute,
    DynoScheduler,
    JoinCondition,
    MultiViewManager,
    PESSIMISTIC,
    RelationRef,
    RelationSchema,
    SPJQuery,
    SimEngine,
    ViewDefinition,
    Workload,
    attr,
    check_convergence,
)
from repro.sources import FixedUpdate


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Autonomous sources (each could be a different provider).
    # ------------------------------------------------------------------
    engine = SimEngine(CostModel.paper_default())
    retailer = engine.add_source(DataSource("retailer"))
    library = engine.add_source(DataSource("library"))

    store = RelationSchema.of("Store", [("SID", AttributeType.INT), "Store"])
    item = RelationSchema.of(
        "Item",
        [
            ("SID", AttributeType.INT),
            "Book",
            "Author",
            ("Price", AttributeType.FLOAT),
        ],
    )
    catalog = RelationSchema.of(
        "Catalog", ["Title", "Author", "Category", "Publisher", "Review"]
    )

    retailer.create_relation(store, [(1, "Amazon"), (2, "BN")])
    retailer.create_relation(
        item,
        [(1, "Databases", "Gray", 50.0), (2, "Compilers", "Aho", 40.0)],
    )
    library.create_relation(
        catalog,
        [
            ("Databases", "Gray", "CS", "MIT", "good"),
            ("Compilers", "Aho", "CS", "AW", "classic"),
        ],
    )

    # ------------------------------------------------------------------
    # 2. The BookInfo materialized view (Query 1 of the paper).
    # ------------------------------------------------------------------
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
    # The stack: the view manager, its UMQ and the wrappers that feed it.
    stack = MultiViewManager(engine, [ViewDefinition("BookInfo", query)])
    manager = stack.manager_for("BookInfo")
    print("view definition:")
    print(" ", manager.view.sql())
    print(f"initial extent: {len(manager.mv.extent)} rows")

    # ------------------------------------------------------------------
    # 3. Autonomous updates: a new book, a matching item, and a schema
    #    change — all committed without asking the view manager.
    # ------------------------------------------------------------------
    workload = Workload()
    workload.add(
        0.0,
        "library",
        FixedUpdate(
            DataUpdate.insert(
                catalog,
                [("Data Integration Guide", "Adams", "Eng", "P", "new")],
            )
        ),
    )
    workload.add(
        0.005,
        "retailer",
        FixedUpdate(
            DataUpdate.insert(
                item, [(1, "Data Integration Guide", "Adams", 35.99)]
            )
        ),
    )
    # Category is projected by the view: this schema change conflicts.
    workload.add(
        1.0, "library", FixedUpdate(DropAttribute("Catalog", "Category"))
    )
    engine.schedule_workload(workload)

    # ------------------------------------------------------------------
    # 4. Run Dyno (pessimistic strategy, the paper's choice).
    # ------------------------------------------------------------------
    scheduler = DynoScheduler(stack, PESSIMISTIC)
    scheduler.run()

    print("\nafter maintenance:")
    print(" ", manager.view.sql())
    for row in sorted(manager.mv.extent.rows()):
        print("  row:", row)

    report = check_convergence(manager)
    print("\nconsistency check:", report.summary())
    print("metrics:", engine.metrics.summary())


if __name__ == "__main__":
    main()
