"""The Dyno scheduler loop under every strategy."""

import pytest

from repro.core.anomalies import AnomalyType
from repro.core.scheduler import DynoScheduler
from repro.core.strategies import (
    BLIND_MERGE,
    NAIVE,
    OPTIMISTIC,
    PESSIMISTIC,
)
from repro.sim.costs import CostModel
from repro.sources.messages import DataUpdate, DropAttribute, RenameRelation
from repro.sources.workload import FixedUpdate, Workload
from repro.views.consistency import check_convergence
from tests.builders import drain_events, free_cost_model
from tests.conftest import CATALOG_SCHEMA, ITEM_SCHEMA, build_bookstore


def schedule(engine, items):
    workload = Workload()
    for at, source, payload in items:
        workload.add(at, source, FixedUpdate(payload))
    engine.schedule_workload(workload)


def catalog_insert() -> DataUpdate:
    return DataUpdate.insert(
        CATALOG_SCHEMA,
        [("Data Integration Guide", "Adams", "Eng", "P", "new")],
    )


class TestQuiescence:
    def test_empty_run_terminates(self):
        engine, stack = build_bookstore(free_cost_model())
        stats = DynoScheduler(stack, PESSIMISTIC).run()
        assert stats.iterations == 0

    def test_processes_pending_events(self):
        engine, stack = build_bookstore(free_cost_model())
        schedule(engine, [(5.0, "library", catalog_insert())])
        DynoScheduler(stack, PESSIMISTIC).run()
        assert stack.umq.is_empty()
        assert engine.metrics.maintained_updates == 1


class TestPessimistic:
    def test_co_arrival_avoids_abort(self):
        """DU and conflicting SC flood in together: pre-exec detection
        reorders before any doomed query is sent (Figure 9's point)."""
        engine, stack = build_bookstore(CostModel.paper_default())
        [manager] = stack.view_managers()
        schedule(
            engine,
            [
                (0.0, "library", catalog_insert()),
                (0.0, "retailer", DropAttribute("Item", "Price")),
            ],
        )
        DynoScheduler(stack, PESSIMISTIC).run()
        assert engine.metrics.aborts == 0
        assert check_convergence(manager).consistent

    def test_detection_skipped_without_flag(self):
        engine, stack = build_bookstore(free_cost_model())
        schedule(
            engine,
            [(0.0, "library", catalog_insert()),
             (0.0, "library", catalog_insert())],
        )
        DynoScheduler(stack, PESSIMISTIC).run()
        assert engine.metrics.detection_rounds == 0  # DU-only: O(1) path

    def test_flag_triggers_detection_once(self):
        engine, stack = build_bookstore(free_cost_model())
        schedule(
            engine,
            [
                (0.0, "library", catalog_insert()),
                # Catalog.Author is not referenced by the view (the view
                # projects I.Author), so this SC conflicts with nothing.
                (0.0, "library", DropAttribute("Catalog", "Author")),
            ],
        )
        DynoScheduler(stack, PESSIMISTIC).run()
        assert engine.metrics.detection_rounds == 1


class TestOptimistic:
    def test_broken_query_aborts_then_corrects(self):
        engine, stack = build_bookstore(CostModel.paper_default())
        [manager] = stack.view_managers()
        schedule(
            engine,
            [
                (0.0, "library", catalog_insert()),
                (0.0, "retailer", DropAttribute("Item", "Price")),
            ],
        )
        DynoScheduler(stack, OPTIMISTIC).run()
        assert engine.metrics.aborts >= 1
        assert engine.metrics.abort_cost > 0
        assert check_convergence(manager).consistent

    def test_never_checks_flag(self):
        engine, stack = build_bookstore(free_cost_model())
        schedule(engine, [(0.0, "library", catalog_insert())])
        DynoScheduler(stack, OPTIMISTIC).run()
        assert stack.umq.new_schema_change_flag is False
        assert engine.metrics.detection_rounds == 0


class TestNaive:
    def test_broken_query_skips_update(self):
        engine, stack = build_bookstore(CostModel.paper_default())
        schedule(
            engine,
            [
                (0.0, "library", catalog_insert()),
                (0.0, "retailer", DropAttribute("Item", "Price")),
            ],
        )
        scheduler = DynoScheduler(stack, NAIVE)
        stats = scheduler.run()
        # The broken-query anomaly occurred and the update was lost —
        # the failure mode the paper sets out to fix.
        assert stats.skipped_updates >= 1
        assert engine.metrics.broken_queries >= 1


class TestBlindMerge:
    def test_merges_whole_queue_on_break(self):
        engine, stack = build_bookstore(CostModel.paper_default())
        [manager] = stack.view_managers()
        schedule(
            engine,
            [
                (0.0, "library", catalog_insert()),
                (0.0, "retailer", DataUpdate.insert(ITEM_SCHEMA, [
                    (1, "Data Integration Guide", "Adams", 35.99)
                ])),
                (0.0, "retailer", DropAttribute("Item", "Price")),
            ],
        )
        DynoScheduler(stack, BLIND_MERGE).run()
        assert engine.metrics.cycle_merges >= 1
        assert check_convergence(manager).consistent


class TestForcedProgress:
    def test_repeat_breaking_head_gets_merged(self):
        """A schema change committing mid-maintenance repeatedly breaks
        the same head; the safety valve merges and converges."""
        engine, stack = build_bookstore(CostModel.paper_default())
        [manager] = stack.view_managers()
        schedule(
            engine,
            [
                (0.0, "library", DropAttribute("Catalog", "Review")),
                # lands mid-adaptation of the first SC
                (5.0, "retailer", RenameRelation("Item", "Item2")),
                (10.0, "retailer", RenameRelation("Item2", "Item3")),
            ],
        )
        scheduler = DynoScheduler(stack, PESSIMISTIC)
        scheduler.run()
        assert check_convergence(manager).consistent

    def test_max_iterations_guard(self):
        engine, stack = build_bookstore(free_cost_model())
        schedule(engine, [(0.0, "library", catalog_insert())])
        scheduler = DynoScheduler(stack, PESSIMISTIC, max_iterations=0)
        stats = scheduler.run()
        assert stats.iterations == 0
        assert engine.metrics.maintained_updates == 0


class TestAccounting:
    def test_abort_cost_below_total(self):
        # query_base=1.0 stretches the adaptation scans so the rename
        # at t=3.5 lands inside the Item scan window and breaks it.
        engine, stack = build_bookstore(CostModel(query_base=1.0))
        schedule(
            engine,
            [
                (0.0, "library", DropAttribute("Catalog", "Review")),
                (3.5, "retailer", RenameRelation("Item", "Item2")),
            ],
        )
        scheduler = DynoScheduler(stack, OPTIMISTIC)
        scheduler.run()
        metrics = engine.metrics
        assert 0 < metrics.abort_cost < metrics.maintenance_cost
        assert metrics.aborts >= 1
        assert metrics.aborts == sum(
            metrics.anomalies[kind]
            for kind in (
                AnomalyType.SC_CONFLICTS_WITH_M_DU,
                AnomalyType.SC_CONFLICTS_WITH_M_SC,
            )
        )

    def test_stats_iterations_counted(self):
        engine, stack = build_bookstore(free_cost_model())
        schedule(
            engine,
            [(0.0, "library", catalog_insert()) for _ in range(3)],
        )
        scheduler = DynoScheduler(stack, PESSIMISTIC)
        stats = scheduler.run()
        assert stats.iterations == 3


class TestStepAPI:
    def test_step_processes_one_unit(self):
        engine, stack = build_bookstore(free_cost_model())
        schedule(
            engine,
            [(0.0, "library", catalog_insert()) for _ in range(3)],
        )
        scheduler = DynoScheduler(stack, PESSIMISTIC)
        assert scheduler.step()  # fire the commits
        assert scheduler.step()  # maintain unit 1
        assert engine.metrics.maintained_updates == 1
        assert len(stack.umq) == 2

    def test_step_false_when_quiescent(self):
        engine, stack = build_bookstore(free_cost_model())
        scheduler = DynoScheduler(stack, PESSIMISTIC)
        assert not scheduler.step()

    def test_stepping_to_completion_equals_run(self):
        results = []
        for mode in ("run", "step"):
            engine, stack = build_bookstore(CostModel.paper_default())
            [manager] = stack.view_managers()
            schedule(
                engine,
                [
                    (0.0, "library", catalog_insert()),
                    (0.5, "retailer", DropAttribute("Item", "Price")),
                ],
            )
            scheduler = DynoScheduler(stack, PESSIMISTIC)
            if mode == "run":
                scheduler.run()
            else:
                while scheduler.step():
                    pass
            results.append(
                (
                    round(engine.metrics.maintenance_cost, 9),
                    engine.metrics.maintained_updates,
                    sorted(manager.mv.extent.rows()),
                )
            )
        assert results[0] == results[1]


class TestForceProgressPreservesQueue:
    def test_nothing_to_absorb_keeps_other_units(self):
        """The safety valve must never drop queued units when the
        breaking source has no queued schema changes."""
        engine, stack = build_bookstore(free_cost_model())
        schedule(
            engine,
            [
                (0.0, "library", catalog_insert()),
                (0.0, "library", catalog_insert()),
                (0.0, "library", catalog_insert()),
            ],
        )
        drain_events(engine)
        scheduler = DynoScheduler(stack, PESSIMISTIC)
        before = list(stack.umq.messages())
        scheduler._force_progress("retailer")  # no retailer SC queued
        assert stack.umq.messages() == before  # untouched

    def test_absorbing_keeps_unrelated_units(self):
        engine, stack = build_bookstore(free_cost_model())
        schedule(
            engine,
            [
                (0.0, "library", catalog_insert()),
                (0.0, "retailer", DropAttribute("Item", "Price")),
                (0.0, "library", catalog_insert()),
            ],
        )
        drain_events(engine)
        scheduler = DynoScheduler(stack, PESSIMISTIC)
        before = set(id(m) for m in stack.umq.messages())
        scheduler._force_progress("retailer")
        after = set(id(m) for m in stack.umq.messages())
        assert before == after  # multiset preserved
        assert scheduler.stats.forced_merges == 1
        assert stack.umq.head().is_batch  # head absorbed the SC
