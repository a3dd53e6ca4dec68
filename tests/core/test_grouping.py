"""Adaptive group maintenance: safe-run formation and scheduling.

Unit tests for :mod:`repro.maintenance.grouping` (run scanning, run
merging, delta coalescing) plus deterministic scheduler integration:
batches actually form and cut rounds, an SC between two DU runs splits
them — never merges across — and Theorem 1's broken-query detection
still fires with batching armed.
"""

import pytest

from repro.core.strategies import OPTIMISTIC, PESSIMISTIC
from repro.experiments.testbed import (
    build_testbed,
    fixed_drop_attribute,
)
from repro.maintenance.grouping import (
    BatchPolicy,
    coalesce_data_updates,
    find_safe_runs,
    merge_runs,
)
from repro.relational.schema import RelationSchema
from repro.sources.messages import (
    DataUpdate,
    DropAttribute,
    UpdateMessage,
)
from repro.sources.workload import Workload
from repro.views.consistency import check_convergence
from repro.views.umq import MaintenanceUnit

R = RelationSchema.of("R", ["a"])
S = RelationSchema.of("S", ["a"])


def du(seqno: int, schema: RelationSchema = R) -> MaintenanceUnit:
    return MaintenanceUnit.single(
        UpdateMessage(
            "s",
            seqno,
            float(seqno),
            DataUpdate.insert(schema, [(seqno,)]),
        )
    )


def sc(seqno: int) -> MaintenanceUnit:
    return MaintenanceUnit.single(
        UpdateMessage("s", seqno, float(seqno), DropAttribute("R", "a"))
    )


class TestFindSafeRuns:
    def test_all_du_queue_is_one_run(self):
        units = [du(1), du(2), du(3)]
        assert find_safe_runs(units, BatchPolicy()) == [(0, 3)]

    def test_sc_splits_runs_and_is_never_merged(self):
        """The acceptance regression: an SC between two DU runs yields
        two separate runs — neither spans nor includes the SC."""
        units = [du(1), du(2), sc(3), du(4), du(5)]
        runs = find_safe_runs(units, BatchPolicy())
        assert runs == [(0, 2), (3, 5)]
        for start, end in runs:
            assert not any(
                unit.has_schema_change for unit in units[start:end]
            )

    def test_single_unit_never_a_run(self):
        assert find_safe_runs([du(1)], BatchPolicy()) == []
        units = [du(1), sc(2), du(3)]
        assert find_safe_runs(units, BatchPolicy()) == []

    def test_max_batch_size_caps_messages_not_units(self):
        units = [du(n) for n in range(1, 6)]
        runs = find_safe_runs(units, BatchPolicy(max_batch_size=2))
        assert runs == [(0, 2), (2, 4)]

    def test_oversized_candidate_ends_the_run(self):
        batch = MaintenanceUnit.merged([du(1), du(2), du(3)])
        units = [du(4), du(5), batch]
        runs = find_safe_runs(units, BatchPolicy(max_batch_size=4))
        assert runs == [(0, 2)]

    def test_sc_bearing_batch_unit_splits_a_run(self):
        """A cycle batch holding a schema change is no more admitted
        than a lone SC: the runs on either side stay apart."""
        cycle = MaintenanceUnit.merged([du(3), sc(4)])
        units = [du(1), du(2), cycle, du(5), du(6)]
        assert find_safe_runs(units, BatchPolicy()) == [(0, 2), (3, 5)]

    def test_semantic_edges_do_not_block(self):
        """Two updates of one relation (a semantic edge, which the
        batch's commit order satisfies) still form a run."""
        assert find_safe_runs([du(1), du(2)], BatchPolicy()) == [(0, 2)]


class TestMergeRuns:
    def test_merge_preserves_surrounding_order(self):
        units = [du(1), du(2), sc(3), du(4), du(5)]
        order, grouped = merge_runs(units, [(0, 2), (3, 5)])
        assert len(order) == 3
        assert [len(unit) for unit in order] == [2, 1, 2]
        assert order[1] is units[2]
        assert grouped == 4
        flattened = [
            message for unit in order for message in unit.messages
        ]
        assert flattened == [
            message for unit in units for message in unit.messages
        ]

    def test_extending_a_batch_counts_only_fresh_messages(self):
        batch = MaintenanceUnit.merged([du(1), du(2), du(3)])
        units = [batch, du(4)]
        order, grouped = merge_runs(units, [(0, 2)])
        assert len(order) == 1
        assert len(order[0]) == 4
        assert grouped == 1


class TestCoalesce:
    def test_same_relation_deltas_merge_into_one_message(self):
        messages = [
            du(1).head_message,
            du(2).head_message,
            du(3, S).head_message,
        ]
        merged = coalesce_data_updates(messages)
        assert len(merged) == 2
        assert merged[0].payload.relation == "R"
        assert sorted(
            count for _row, count in merged[0].payload.delta.items()
        ) == [1, 1]
        assert merged[0].committed_at == 2.0
        assert merged[1] is messages[2]

    def test_cancelling_pair_drops_out(self):
        insert = UpdateMessage(
            "s", 1, 1.0, DataUpdate.insert(R, [(7,)])
        )
        delete = UpdateMessage(
            "s", 2, 2.0, DataUpdate.delete(R, [(7,)])
        )
        other = du(3, S).head_message
        merged = coalesce_data_updates([insert, delete, other])
        assert merged == [other]

    def test_mixed_schemas_in_one_group_bail_out(self):
        """Two deltas for relation R whose schemas differ (updates
        straddling an untranslated schema gap) must be left alone."""
        renamed = RelationSchema.of("R", ["b"])
        messages = [
            du(1).head_message,
            UpdateMessage(
                "s",
                2,
                2.0,
                DataUpdate("R", du(2, renamed).head_message.payload.delta),
            ),
        ]
        assert coalesce_data_updates(messages) == messages

    def test_all_singletons_untouched(self):
        messages = [du(1).head_message, du(2, S).head_message]
        assert coalesce_data_updates(messages) == messages


class TestSchedulerIntegration:
    def _stream(self, testbed, count, start=0.05, interval=0.01):
        testbed.engine.schedule_workload(
            testbed.random_du_workload(count, start, interval)
        )

    @pytest.mark.parametrize("strategy", [PESSIMISTIC, OPTIMISTIC])
    def test_batches_cut_rounds_and_converge(self, strategy):
        testbed = build_testbed(
            strategy,
            tuples_per_relation=30,
            batch_policy=BatchPolicy(max_batch_size=24),
        )
        self._stream(testbed, 30)
        testbed.run()
        metrics = testbed.metrics
        assert metrics.batches_formed > 0
        assert metrics.grouped_messages > 0
        assert metrics.maintenance_rounds < 30
        report = check_convergence(testbed.manager.manager_for("V"))
        assert report.consistent, report.summary()

    def test_no_policy_means_no_batches(self):
        testbed = build_testbed(PESSIMISTIC, tuples_per_relation=30)
        self._stream(testbed, 10)
        testbed.run()
        assert testbed.metrics.batches_formed == 0
        assert testbed.metrics.grouped_messages == 0
        assert testbed.metrics.maintenance_rounds == 10

    def test_theorem_one_detection_still_fires(self):
        """Optimistic + batching: an SC committing mid-maintenance must
        still break the in-flight query (Theorem 1), abort it, and the
        run must still converge — the voluntary batch never swallows
        the conflict."""
        testbed = build_testbed(
            OPTIMISTIC,
            tuples_per_relation=200,
            batch_policy=BatchPolicy(max_batch_size=24),
        )
        workload = Workload()
        du_intent = testbed.random_du_workload(1, 0.0, 1.0).items[0].intent
        workload.add(0.0, "src1", du_intent)
        # Drop a non-key attribute of R6 — the last relation the DU
        # sweep probes — committed while that sweep is in flight.
        workload.add(0.0, "src3", fixed_drop_attribute(5))
        testbed.engine.schedule_workload(workload)
        testbed.run()
        assert testbed.metrics.broken_queries >= 1
        assert testbed.metrics.aborts >= 1
        report = check_convergence(testbed.manager.manager_for("V"))
        assert report.consistent, report.summary()
