"""Deterministic mixed-workload integration runs on the testbed."""

import pytest

from repro.core.strategies import BLIND_MERGE, OPTIMISTIC, PESSIMISTIC
from repro.experiments.testbed import (
    build_testbed,
    fixed_drop_attribute,
    fixed_rename_relation,
    relation_name,
    source_of_relation,
)
from repro.sources.workload import Workload
from repro.views.consistency import check_convergence
from tests.builders import drain_events


class TestTestbedShape:
    def test_six_relations_over_three_sources(self):
        testbed = build_testbed(PESSIMISTIC, tuples_per_relation=10)
        assert len(testbed.engine.sources) == 3
        total = sum(
            len(source.catalog)
            for source in testbed.engine.sources.values()
        )
        assert total == 6

    def test_one_to_one_join_view(self):
        testbed = build_testbed(PESSIMISTIC, tuples_per_relation=10)
        assert len(testbed.manager.mv.extent) == 10
        assert testbed.manager.mv.extent.schema.arity == 24

    def test_source_of_relation_round_robin(self):
        assert source_of_relation(0) == "src1"
        assert source_of_relation(1) == "src1"
        assert source_of_relation(2) == "src2"
        assert source_of_relation(5) == "src3"

    def test_current_source_tracks_renames(self):
        testbed = build_testbed(PESSIMISTIC, tuples_per_relation=10)
        catalog = testbed.engine.sources["src1"].catalog
        assert "R1" in catalog.relation_names
        workload = Workload()
        workload.add(0.0, "src1", fixed_rename_relation(0))
        testbed.engine.schedule_workload(workload)
        drain_events(testbed.engine)
        # the renamed relation stays at its source under its new name
        assert "R1" not in catalog.relation_names
        assert "R1__v2" in catalog.relation_names


class TestDeterminism:
    def test_same_seed_same_metrics(self):
        results = []
        for _repeat in range(2):
            testbed = build_testbed(
                PESSIMISTIC, tuples_per_relation=50, seed=9
            )
            testbed.engine.schedule_workload(
                testbed.random_du_workload(20, 0.0, 0.2, seed=3)
            )
            testbed.engine.schedule_workload(
                testbed.schema_change_workload(2, 1.0, 10.0, seed=4)
            )
            testbed.run()
            results.append(
                (
                    round(testbed.metrics.maintenance_cost, 9),
                    testbed.metrics.aborts,
                    sorted(testbed.manager.mv.extent.rows())[:3],
                )
            )
        assert results[0] == results[1]


@pytest.mark.parametrize(
    "strategy", [PESSIMISTIC, OPTIMISTIC, BLIND_MERGE]
)
class TestStrategiesConverge:
    def test_dense_mixed_workload(self, strategy):
        testbed = build_testbed(strategy, tuples_per_relation=50, seed=2)
        testbed.engine.schedule_workload(
            testbed.random_du_workload(30, 0.0, 0.1, seed=5)
        )
        testbed.engine.schedule_workload(
            testbed.schema_change_workload(4, 0.0, 8.0, seed=6)
        )
        testbed.run()
        report = check_convergence(testbed.manager)
        assert report.consistent, report.summary()

    def test_targeted_drop_and_rename(self, strategy):
        testbed = build_testbed(strategy, tuples_per_relation=50, seed=2)
        workload = Workload()
        workload.add(0.0, "src2", fixed_drop_attribute(3))
        workload.add(2.0, "src3", fixed_rename_relation(5))
        workload.add(4.0, "src1", fixed_rename_relation(0))
        testbed.engine.schedule_workload(workload)
        testbed.engine.schedule_workload(
            testbed.random_du_workload(10, 0.0, 1.0, seed=8)
        )
        testbed.run()
        report = check_convergence(testbed.manager)
        assert report.consistent, report.summary()
        # B4 was dropped: the view lost one projected column
        assert testbed.manager.mv.extent.schema.arity == 23

    def test_rename_chain_on_one_relation(self, strategy):
        from repro.sources.messages import RenameRelation
        from repro.sources.workload import FixedUpdate

        testbed = build_testbed(strategy, tuples_per_relation=50, seed=2)
        workload = Workload()
        names = ["R1", "R1__v2", "R1__v3", "R1__v4", "R1__v5"]
        for index in range(4):
            workload.add(
                index * 5.0,
                "src1",
                FixedUpdate(RenameRelation(names[index], names[index + 1])),
            )
        testbed.engine.schedule_workload(workload)
        testbed.run()
        report = check_convergence(testbed.manager)
        assert report.consistent, report.summary()
