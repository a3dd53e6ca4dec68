"""Direct unit tests of the broken-query handler and the safety valve.

``_handle_broken_query`` is the single funnel for every mid-maintenance
failure; these tests drive it directly (no engine loop) to pin down the
classification contract: genuine :class:`BrokenQueryError` flags feed
the strategy's policy (correct / merge-all / skip), transient outages
are quarantined and must never touch the anomaly machinery.
"""

import pytest

from repro.core.scheduler import DynoScheduler
from repro.core.strategies import (
    BLIND_MERGE,
    NAIVE,
    OPTIMISTIC,
    PESSIMISTIC,
)
from repro.sources.errors import (
    BrokenQueryError,
    SourceUnavailableError,
    TransientSourceError,
)
from repro.sources.messages import (
    DataUpdate,
    DropAttribute,
    RestructureRelations,
)
from repro.sources.workload import FixedUpdate, Workload
from tests.builders import drain_events, free_cost_model
from tests.conftest import (
    CATALOG_SCHEMA,
    ITEM_SCHEMA,
    STOREITEMS_SCHEMA,
    build_bookstore,
)

BOTH = pytest.mark.parametrize(
    "strategy", [PESSIMISTIC, OPTIMISTIC], ids=["pessimistic", "optimistic"]
)


def queue(engine, payloads):
    workload = Workload()
    for source, payload in payloads:
        workload.add(0.0, source, FixedUpdate(payload))
    engine.schedule_workload(workload)
    drain_events(engine)


def catalog_insert() -> DataUpdate:
    return DataUpdate.insert(
        CATALOG_SCHEMA,
        [("Data Integration Guide", "Adams", "Eng", "P", "new")],
    )


def item_insert() -> DataUpdate:
    return DataUpdate.insert(ITEM_SCHEMA, [(1, "Networks", "Tan", 30.0)])


def broken(source: str) -> BrokenQueryError:
    return BrokenQueryError(source, "SELECT ...", "relation dropped")


class TestClassification:
    @BOTH
    def test_genuine_flag_feeds_correction(self, strategy):
        engine, manager = build_bookstore(free_cost_model())
        queue(engine, [("library", catalog_insert())])
        scheduler = DynoScheduler(manager, strategy)
        scheduler._handle_broken_query(manager.umq.head(), broken("library"))
        assert scheduler.stats.genuine_broken_flags == 1
        assert scheduler.stats.false_flags_avoided == 0
        assert scheduler.stats.corrections == 1  # CORRECT policy ran

    @BOTH
    def test_transient_is_quarantined_not_corrected(self, strategy):
        engine, manager = build_bookstore(free_cost_model())
        queue(engine, [("library", catalog_insert())])
        scheduler = DynoScheduler(manager, strategy)
        error = TransientSourceError("library", "hiccup", retry_at=5.0)
        scheduler._handle_broken_query(manager.umq.head(), error)
        assert scheduler.stats.false_flags_avoided == 1
        assert scheduler.stats.genuine_broken_flags == 0
        assert scheduler.stats.corrections == 0
        assert scheduler._quarantined["library"] == pytest.approx(5.0)
        assert len(manager.umq) == 1  # queue untouched

    @BOTH
    def test_exhausted_retries_use_recovery_hint(self, strategy):
        engine, manager = build_bookstore(free_cost_model())
        queue(engine, [("library", catalog_insert())])
        scheduler = DynoScheduler(manager, strategy)
        last = TransientSourceError("retailer", "crashed", retry_at=7.5)
        down = SourceUnavailableError(
            "retailer", 4, "exhausted", last_error=last
        )
        scheduler._handle_broken_query(manager.umq.head(), down)
        assert scheduler._quarantined["retailer"] == pytest.approx(7.5)
        assert scheduler.stats.quarantine_events == [(0.0, "retailer", 7.5)]

    @BOTH
    def test_requarantine_only_extends(self, strategy):
        engine, manager = build_bookstore(free_cost_model())
        scheduler = DynoScheduler(manager, strategy)
        scheduler._quarantine("library", 5.0)
        scheduler._quarantine("library", 2.0)  # earlier hint: ignored
        assert scheduler._quarantined["library"] == pytest.approx(5.0)


class TestPolicies:
    def test_naive_skips_the_head(self):
        engine, manager = build_bookstore(free_cost_model())
        queue(
            engine,
            [("library", catalog_insert()), ("library", catalog_insert())],
        )
        scheduler = DynoScheduler(manager, NAIVE)
        scheduler._handle_broken_query(manager.umq.head(), broken("library"))
        assert scheduler.stats.skipped_updates == 1
        assert len(manager.umq) == 1

    def test_blind_merge_collapses_the_queue(self):
        engine, manager = build_bookstore(free_cost_model())
        queue(
            engine,
            [
                ("library", catalog_insert()),
                ("retailer", DropAttribute("Item", "Price")),
                ("library", catalog_insert()),
            ],
        )
        scheduler = DynoScheduler(manager, BLIND_MERGE)
        scheduler._handle_broken_query(manager.umq.head(), broken("retailer"))
        assert len(list(manager.umq.units)) == 1
        assert manager.umq.head().is_batch


class TestForcedProgress:
    @BOTH
    def test_repeat_break_with_stable_order_merges_head(self, strategy):
        """Correction that leaves the breaking head in place twice in a
        row triggers the safety valve: the head absorbs the breaking
        source's queued schema changes into one atomic batch."""
        engine, manager = build_bookstore(free_cost_model())
        queue(
            engine,
            [
                ("library", catalog_insert()),
                # Catalog.Author is not referenced by the view, so this
                # SC conflicts with nothing and correction keeps FIFO.
                ("library", DropAttribute("Catalog", "Author")),
            ],
        )
        scheduler = DynoScheduler(manager, strategy)
        head = manager.umq.head()
        scheduler._handle_broken_query(head, broken("library"))
        assert scheduler.stats.forced_merges == 0  # first break: corrected
        # Correction rebuilds unit objects but keeps the same messages
        # at the head (the scheduler's repeat test uses message ids).
        assert [id(m) for m in manager.umq.head()] == [id(m) for m in head]
        scheduler._handle_broken_query(head, broken("library"))
        assert scheduler.stats.forced_merges == 1
        merged = manager.umq.head()
        assert merged.is_batch
        assert len(merged) == 2  # DU + absorbed SC
        assert len(list(manager.umq.units)) == 1

    @BOTH
    def test_repeat_break_absorbs_what_must_precede_the_change(
        self, strategy
    ):
        """A same-relation update queued between the head and the
        breaking source's schema change committed before the change:
        the forced batch absorbs it too, so no update is queued behind
        a change that committed after it."""
        engine, manager = build_bookstore(free_cost_model())
        queue(
            engine,
            [
                ("library", catalog_insert()),
                ("retailer", item_insert()),
                ("library", catalog_insert()),
                ("library", DropAttribute("Catalog", "Author")),
            ],
        )
        first, unrelated, earlier, change = manager.umq.messages()
        scheduler = DynoScheduler(manager, strategy)
        scheduler._handle_broken_query(manager.umq.head(), broken("library"))
        scheduler._handle_broken_query(manager.umq.head(), broken("library"))
        assert scheduler.stats.forced_merges == 1
        merged, *rest = manager.umq.units
        assert list(merged) == [first, earlier, change]
        assert [list(unit) for unit in rest] == [[unrelated]]

    @BOTH
    def test_cyclic_dependencies_merge_into_batch(self, strategy):
        """Figure 4's cycle, reached through the broken-query path: the
        correction round inside the handler merges the cycle."""
        engine, manager = build_bookstore(free_cost_model())
        queue(
            engine,
            [
                ("library", catalog_insert()),
                (
                    "retailer",
                    RestructureRelations(
                        dropped=("Store", "Item"),
                        new_schema=STOREITEMS_SCHEMA,
                    ),
                ),
                ("library", DropAttribute("Catalog", "Review")),
            ],
        )
        scheduler = DynoScheduler(manager, strategy)
        scheduler._handle_broken_query(
            manager.umq.head(), broken("retailer")
        )
        assert engine.metrics.cycle_merges >= 1
        assert len(list(manager.umq.units)) == 1
        batch = manager.umq.head()
        assert batch.is_batch
        assert len(batch) == 3
        # Commit order survives inside the merged batch.
        assert [m.seqno for m in batch] == sorted(m.seqno for m in batch)

    @BOTH
    def test_nothing_to_absorb_waits_for_arrival(self, strategy):
        engine, manager = build_bookstore(free_cost_model())
        queue(engine, [("library", catalog_insert())])
        engine.schedule(1.0, lambda: None)
        scheduler = DynoScheduler(manager, strategy)
        before = list(manager.umq.messages())
        scheduler._force_progress("retailer")  # no retailer SC queued
        assert manager.umq.messages() == before
        assert scheduler.stats.forced_merges == 0
        assert engine.clock.now == pytest.approx(1.0)  # waited instead
