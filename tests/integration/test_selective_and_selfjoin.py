"""End-to-end maintenance of selective views and self-join views.

The figure testbed's view is a pure equi-join; these tests exercise the
two harder query shapes the engine supports: selection predicates that
updates cross in both directions, and a relation joined with itself
(where the VM sweep's occurrence handling and the self-join
compensation rule matter).
"""

import pytest

from repro.core.scheduler import DynoScheduler
from repro.core.strategies import OPTIMISTIC, PESSIMISTIC
from repro.relational.predicate import Comparison, attr
from repro.relational.query import JoinCondition, RelationRef, SPJQuery
from repro.relational.schema import RelationSchema
from repro.relational.types import AttributeType
from repro.sim.costs import CostModel
from repro.sim.engine import SimEngine
from repro.sources.messages import DataUpdate, DropAttribute
from repro.sources.source import DataSource
from repro.sources.workload import FixedUpdate, Workload
from repro.views.consistency import check_convergence
from repro.views.definition import ViewDefinition
from repro.views.multi import MultiViewManager

ITEM = RelationSchema.of(
    "Item",
    [
        ("SID", AttributeType.INT),
        "Book",
        "Author",
        ("Price", AttributeType.FLOAT),
    ],
)


def build_selective():
    engine = SimEngine(CostModel.paper_default())
    retailer = engine.add_source(DataSource("retailer"))
    retailer.create_relation(
        ITEM,
        [
            (1, "Databases", "Gray", 50.0),
            (2, "Compilers", "Aho", 40.0),
            (3, "Datalog", "Ullman", 30.0),
        ],
    )
    query = SPJQuery(
        relations=(RelationRef("retailer", "Item", "I"),),
        projection=(attr("I", "Book"), attr("I", "Price")),
        selection=Comparison(attr("I", "Price"), "<", 45.0),
    )
    return engine, MultiViewManager(engine, [ViewDefinition("Cheap", query)])


class TestSelectiveView:
    def test_updates_crossing_the_predicate(self):
        engine, stack = build_selective()
        [manager] = stack.view_managers()
        assert len(manager.mv.extent) == 2
        workload = Workload()
        # below the threshold: enters the view
        workload.add(
            0.0,
            "retailer",
            FixedUpdate(
                DataUpdate.insert(ITEM, [(4, "Types", "Pierce", 20.0)])
            ),
        )
        # above the threshold: invisible to the view
        workload.add(
            0.5,
            "retailer",
            FixedUpdate(
                DataUpdate.insert(ITEM, [(5, "Sicp", "Abelson", 99.0)])
            ),
        )
        # delete a matching row: leaves the view
        workload.add(
            1.0,
            "retailer",
            FixedUpdate(
                DataUpdate.delete(ITEM, [(2, "Compilers", "Aho", 40.0)])
            ),
        )
        engine.schedule_workload(workload)
        DynoScheduler(stack, PESSIMISTIC).run()
        rows = sorted(manager.mv.extent.rows())
        assert rows == [("Datalog", 30.0), ("Types", 20.0)]
        assert check_convergence(manager).consistent

    def test_dropping_the_predicate_attribute(self):
        engine, stack = build_selective()
        [manager] = stack.view_managers()
        workload = Workload()
        workload.add(
            1.0, "retailer", FixedUpdate(DropAttribute("Item", "Price"))
        )
        engine.schedule_workload(workload)
        DynoScheduler(stack, PESSIMISTIC).run()
        # Price pruned from projection AND selection: all books qualify
        assert manager.view.version == 2
        assert len(manager.mv.extent) == 3
        assert check_convergence(manager).consistent


def build_selfjoin():
    engine = SimEngine(CostModel.paper_default())
    retailer = engine.add_source(DataSource("retailer"))
    retailer.create_relation(
        ITEM,
        [
            (1, "Databases", "Gray", 50.0),
            (2, "Transactions", "Gray", 45.0),
            (3, "Compilers", "Aho", 40.0),
        ],
    )
    # pairs of books by the same author
    query = SPJQuery(
        relations=(
            RelationRef("retailer", "Item", "L"),
            RelationRef("retailer", "Item", "R"),
        ),
        projection=(attr("L", "Book"), attr("R", "Book")),
        joins=(JoinCondition(attr("L", "Author"), attr("R", "Author")),),
    )
    return engine, MultiViewManager(
        engine, [ViewDefinition("SameAuthor", query)]
    )


class TestSelfJoinView:
    def test_initial_extent(self):
        _engine, stack = build_selfjoin()
        [manager] = stack.view_managers()
        # Gray x Gray gives 4 pairs, Aho x Aho gives 1
        assert len(manager.mv.extent) == 5

    @pytest.mark.parametrize("strategy", [PESSIMISTIC, OPTIMISTIC])
    def test_insert_maintains_both_occurrences(self, strategy):
        engine, stack = build_selfjoin()
        [manager] = stack.view_managers()
        workload = Workload()
        workload.add(
            0.0,
            "retailer",
            FixedUpdate(
                DataUpdate.insert(ITEM, [(4, "Views", "Gray", 10.0)])
            ),
        )
        engine.schedule_workload(workload)
        DynoScheduler(stack, strategy).run()
        # Gray now has 3 books -> 9 pairs; plus Aho's 1 pair
        assert len(manager.mv.extent) == 10
        assert check_convergence(manager).consistent

    def test_delete_maintains_both_occurrences(self):
        engine, stack = build_selfjoin()
        [manager] = stack.view_managers()
        workload = Workload()
        workload.add(
            0.0,
            "retailer",
            FixedUpdate(
                DataUpdate.delete(
                    ITEM, [(2, "Transactions", "Gray", 45.0)]
                )
            ),
        )
        engine.schedule_workload(workload)
        DynoScheduler(stack, PESSIMISTIC).run()
        assert len(manager.mv.extent) == 2  # Gray solo pair + Aho pair
        assert check_convergence(manager).consistent

    def test_concurrent_inserts_same_author(self):
        """Two close inserts of the same author: the self-join
        compensation rule must prevent double counting."""
        engine, stack = build_selfjoin()
        [manager] = stack.view_managers()
        workload = Workload()
        workload.add(
            0.0,
            "retailer",
            FixedUpdate(
                DataUpdate.insert(ITEM, [(4, "Views", "Gray", 10.0)])
            ),
        )
        workload.add(
            0.01,  # inside the first maintenance's probe window
            "retailer",
            FixedUpdate(
                DataUpdate.insert(ITEM, [(5, "Cubes", "Gray", 12.0)])
            ),
        )
        engine.schedule_workload(workload)
        DynoScheduler(stack, PESSIMISTIC).run()
        # Gray has 4 books -> 16 pairs; Aho 1 pair
        assert len(manager.mv.extent) == 17
        report = check_convergence(manager)
        assert report.consistent, report.summary()
