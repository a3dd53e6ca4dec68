"""The Section 6.1 testbed builder and its workload helpers."""

import pytest

from repro.core.strategies import PESSIMISTIC
from repro.experiments.testbed import (
    build_testbed,
    fixed_drop_attribute,
    fixed_rename_relation,
    relation_name,
    relation_schema,
    source_name,
    source_of_relation,
)
from repro.sources.messages import DropAttribute, RenameRelation


class TestNaming:
    def test_relation_names(self):
        assert relation_name(0) == "R1"
        assert relation_name(5) == "R6"

    def test_source_names(self):
        assert source_name(0) == "src1"
        assert source_name(2) == "src3"

    def test_distribution_two_per_source(self):
        owners = [source_of_relation(index) for index in range(6)]
        assert owners == ["src1", "src1", "src2", "src2", "src3", "src3"]

    def test_schema_shape(self):
        schema = relation_schema(2)
        assert schema.name == "R3"
        assert schema.attribute_names == ("K", "A3", "B3", "C3")


class TestFixedIntents:
    def test_fixed_drop_attribute_default_target(self):
        update = fixed_drop_attribute(3).update
        assert update == DropAttribute("R4", "B4")

    def test_fixed_drop_attribute_custom(self):
        update = fixed_drop_attribute(0, "C1").update
        assert update == DropAttribute("R1", "C1")

    def test_fixed_rename(self):
        update = fixed_rename_relation(5).update
        assert update == RenameRelation("R6", "R6__v2")


class TestWorkloadGenerators:
    def test_du_workload_count_and_spacing(self):
        testbed = build_testbed(PESSIMISTIC, tuples_per_relation=10)
        workload = testbed.random_du_workload(10, start=1.0, interval=0.5)
        items = workload.sorted()
        assert len(items) == 10
        assert items[0].at == 1.0
        assert items[-1].at == pytest.approx(5.5)

    def test_du_workload_deterministic(self):
        testbed = build_testbed(PESSIMISTIC, tuples_per_relation=10)
        first = testbed.random_du_workload(5, 0.0, 1.0, seed=3)
        second = testbed.random_du_workload(5, 0.0, 1.0, seed=3)
        assert [i.source_name for i in first] == [
            i.source_name for i in second
        ]

    def test_sc_workload_first_is_drop(self):
        testbed = build_testbed(PESSIMISTIC, tuples_per_relation=10)
        workload = testbed.schema_change_workload(3, 0.0, 5.0)
        intents = [item.intent for item in workload.sorted()]
        from repro.sources.workload import (
            DropRandomAttribute,
            RenameRandomRelation,
        )

        assert isinstance(intents[0], DropRandomAttribute)
        assert all(
            isinstance(intent, RenameRandomRelation)
            for intent in intents[1:]
        )

    def test_sc_workload_without_drop(self):
        testbed = build_testbed(PESSIMISTIC, tuples_per_relation=10)
        workload = testbed.schema_change_workload(
            2, 0.0, 5.0, drop_first=False
        )
        from repro.sources.workload import RenameRandomRelation

        assert all(
            isinstance(item.intent, RenameRandomRelation)
            for item in workload.sorted()
        )


class TestBuild:
    def test_initial_view_is_one_to_one(self):
        testbed = build_testbed(PESSIMISTIC, tuples_per_relation=25)
        assert len(testbed.manager.manager_for("V").mv.extent) == 25

    def test_seed_controls_data(self):
        first = build_testbed(PESSIMISTIC, tuples_per_relation=10, seed=1)
        second = build_testbed(PESSIMISTIC, tuples_per_relation=10, seed=1)
        third = build_testbed(PESSIMISTIC, tuples_per_relation=10, seed=2)
        assert first.extent_rows() == second.extent_rows()
        assert first.extent_rows() != third.extent_rows()
