"""Unit tests for view placement, the footprint router, and the
sharded-warehouse coordinator."""

from functools import partial

import pytest

from repro.core.sharding import ShardedWarehouse, ShardRouter, assign_views
from repro.core.strategies import PESSIMISTIC
from repro.experiments.testbed import (
    build_sharded_testbed,
    subview_query,
)
from repro.relational.predicate import attr
from repro.relational.query import RelationRef, SPJQuery
from repro.sim.metrics import Metrics
from repro.sources.messages import DataUpdate, RenameRelation, UpdateMessage
from repro.views.definition import ViewDefinition
from repro.views.manager import filtered_sink
from repro.views.umq import UpdateMessageQueue


def _views(*spans):
    return [
        ViewDefinition(f"V{index + 1}", subview_query(first, last))
        for index, (first, last) in enumerate(spans)
    ]


def _du(source, relation, seqno=1, at=1.0):
    # The router only inspects source + touched_relations(); the delta
    # payload itself is never dereferenced on the routing path.
    return UpdateMessage(source, seqno, at, DataUpdate(relation, None))


def _rename(source, old, new, seqno=1, at=1.0):
    return UpdateMessage(source, seqno, at, RenameRelation(old, new))


class TestAssignViews:
    def test_every_view_placed_exactly_once(self):
        views = _views((0, 2), (1, 3), (3, 5), (4, 6))
        buckets = assign_views(views, 3)
        placed = [view.name for bucket in buckets for view in bucket]
        assert sorted(placed) == sorted(view.name for view in views)

    def test_effective_shards_capped_by_view_count(self):
        views = _views((0, 2), (2, 4))
        buckets = assign_views(views, 8)
        assert len(buckets) == 2
        assert all(bucket for bucket in buckets)

    def test_deterministic(self):
        views = _views((0, 2), (1, 3), (3, 5), (4, 6))
        first = assign_views(views, 2)
        second = assign_views(list(views), 2)
        assert [[v.name for v in b] for b in first] == [
            [v.name for v in b] for b in second
        ]

    def test_lpt_balances_relation_weight(self):
        # One heavy 4-relation view and three light 2-relation views on
        # two shards: LPT keeps the heavy view alone against two lights.
        views = _views((0, 4), (4, 6), (0, 2), (2, 4))
        buckets = assign_views(views, 2)
        loads = sorted(
            sum(len(view.query.relations) for view in bucket)
            for bucket in buckets
        )
        assert loads == [4, 6]

    def test_caller_order_preserved_within_bucket(self):
        views = _views((0, 2), (1, 3), (3, 5), (4, 6))
        order = {view.name: index for index, view in enumerate(views)}
        for bucket in assign_views(views, 2):
            indices = [order[view.name] for view in bucket]
            assert indices == sorted(indices)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            assign_views(_views((0, 2)), 0)
        with pytest.raises(ValueError):
            assign_views([], 2)


class TestShardRouter:
    def _router(self):
        router = ShardRouter()
        views = _views((0, 2), (3, 5))
        router.register_view(0, views[0])  # R1, R2
        router.register_view(1, views[1])  # R4, R5
        return router

    def test_footprint_covers_view_relations(self):
        router = self._router()
        assert ("src1", "R1") in router.footprint(0)
        assert ("src1", "R2") in router.footprint(0)
        assert ("src2", "R4") in router.footprint(1)

    def test_accepts_only_in_footprint(self):
        router = self._router()
        message = _du("src1", "R1")
        assert router.accepts(0, message)
        assert not router.accepts(1, message)
        assert not router.accepts(0, _du("src1", "R3"))
        assert not router.accepts(7, message)  # unregistered shard

    def test_source_distinguishes_identical_relation_names(self):
        router = ShardRouter()
        query = SPJQuery((RelationRef("srcA", "R", "R"),), (attr("R", "a"),))
        router.register_view(0, ViewDefinition("V", query))
        assert router.accepts(0, _du("srcA", "R"))
        assert not router.accepts(0, _du("srcB", "R"))

    def test_rename_grows_footprint_monotonically(self):
        router = self._router()
        assert not router.accepts(0, _du("src1", "R1x"))
        assert router.accepts(0, _rename("src1", "R1", "R1x"))
        assert ("src1", "R1x") in router.footprint(0)
        assert router.accepts(0, _du("src1", "R1x", seqno=2, at=2.0))
        # Chains keep following.
        assert router.accepts(0, _rename("src1", "R1x", "R1y", seqno=3))
        assert router.accepts(0, _du("src1", "R1y", seqno=4, at=3.0))

    def test_rejected_rename_leaves_footprint_untouched(self):
        router = self._router()
        assert not router.accepts(1, _rename("src1", "R1", "R1x"))
        assert ("src1", "R1x") not in router.footprint(1)

    def test_delivery_filter_counts_into_metrics(self):
        """The router only decides; the wrapper sink a shard's stack
        delivers through counts what it delivered and what it kept
        out."""
        router = self._router()
        metrics = Metrics()
        umq = UpdateMessageQueue()
        sink = filtered_sink(umq, partial(router.accepts, 0), metrics)
        delivered = _du("src1", "R1")
        sink(delivered)
        sink(_du("src1", "R3", seqno=2))
        assert umq.messages() == [delivered]
        assert metrics.router_delivered == 1
        assert metrics.router_dropped == 1
        # Asking the predicate itself (what recovery does) counts nothing.
        assert router.accepts(0, delivered)
        assert (metrics.router_delivered, metrics.router_dropped) == (1, 1)


class TestShardedWarehouse:
    def test_rejects_duplicate_view_registration(self):
        testbed = build_sharded_testbed(
            PESSIMISTIC, shards=2, tuples_per_relation=20
        )
        shards = testbed.warehouse.shards
        clone = shards[1]
        clone.view_names = shards[0].view_names
        with pytest.raises(ValueError):
            ShardedWarehouse([shards[0], clone], testbed.warehouse.router)

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            ShardedWarehouse([], ShardRouter())

    def test_run_reaches_quiescence_and_matches_oracle(self):
        def run(shards):
            testbed = build_sharded_testbed(
                PESSIMISTIC, shards=shards, tuples_per_relation=40
            )
            testbed.schedule_du_workload(24, start=0.05, interval=0.05)
            testbed.run()
            assert testbed.check_consistency()
            return testbed

        oracle = run(1)
        sharded = run(2)
        assert sharded.extent_rows() == oracle.extent_rows()
        assert sharded.committed_updates() == oracle.committed_updates()

    def test_aggregate_makespan_is_slowest_shard(self):
        testbed = build_sharded_testbed(
            PESSIMISTIC, shards=2, tuples_per_relation=40
        )
        testbed.schedule_du_workload(16, start=0.05, interval=0.05)
        testbed.run()
        warehouse = testbed.warehouse
        assert warehouse.aggregate_makespan() == max(
            shard.engine.metrics.elapsed for shard in warehouse.shards
        )
        merged = warehouse.aggregate_metrics()
        assert merged.makespan == warehouse.aggregate_makespan()
        assert merged.router_delivered == sum(
            shard.engine.metrics.router_delivered
            for shard in warehouse.shards
        )

    def test_sc_barrier_defers_and_still_converges(self):
        def run(shards):
            testbed = build_sharded_testbed(
                PESSIMISTIC, shards=shards, tuples_per_relation=40
            )
            testbed.schedule_du_workload(20, start=0.05, interval=0.05)
            testbed.schedule_sc_workload(2, start=0.8, interval=8.0)
            testbed.run()
            assert testbed.check_consistency()
            return testbed

        oracle = run(1)
        sharded = run(4)
        assert sharded.extent_rows() == oracle.extent_rows()
        assert sharded.committed_updates() == oracle.committed_updates()
        # With several shards an SC-bearing head waits for peers at
        # least once in this workload.
        assert sharded.metrics.barrier_deferrals > 0

    def test_router_drops_out_of_footprint_messages_only_when_sharded(self):
        testbed = build_sharded_testbed(
            PESSIMISTIC, shards=4, tuples_per_relation=40
        )
        testbed.schedule_du_workload(24, start=0.05, interval=0.05)
        testbed.run()
        metrics = testbed.metrics
        assert metrics.router_dropped > 0
        oracle = build_sharded_testbed(
            PESSIMISTIC, shards=1, tuples_per_relation=40
        )
        oracle.schedule_du_workload(24, start=0.05, interval=0.05)
        oracle.run()
        assert oracle.metrics.router_dropped == 0
