"""The one ``WarehouseConfig``: validation, derivation, entry points."""

import dataclasses
import pickle

import pytest

from repro.core.strategies import OPTIMISTIC, PESSIMISTIC
from repro.experiments import (
    WarehouseConfig,
    build_sharded_testbed,
    build_testbed,
    sharded_config,
)
from repro.experiments.testbed import SHARDED_SPANS
from repro.faults.plan import FaultPlan
from repro.maintenance.grouping import BatchPolicy
from repro.recovery import CrashPlan


class TestValidation:
    @pytest.mark.parametrize(
        "knobs",
        [
            {"backend": "oracle8i"},
            {"executor": "vectorized"},
            {"parallel_workers": 0},
            {"checkpoint_every": 0},
            {"shards": 0},
            {"shard_processes": -1},
            {"journal_dir": "/tmp/nowhere"},  # without a journal
        ],
        ids=lambda knobs: next(iter(knobs)),
    )
    def test_rejected_values(self, knobs):
        with pytest.raises(ValueError):
            WarehouseConfig(**knobs)
        # The builders validate through the same object.
        with pytest.raises(ValueError):
            build_testbed(PESSIMISTIC, **knobs)
        with pytest.raises(ValueError):
            build_sharded_testbed(PESSIMISTIC, **knobs)

    @pytest.mark.parametrize(
        "build", [WarehouseConfig, build_testbed, build_sharded_testbed]
    )
    def test_unknown_knob_is_a_type_error(self, build):
        args = () if build is WarehouseConfig else (PESSIMISTIC,)
        with pytest.raises(TypeError):
            build(*args, snapshot_cash=True)

    def test_replace_revalidates(self):
        with pytest.raises(ValueError):
            WarehouseConfig().replace(shards=0)

    def test_journal_dir_with_journal_is_fine(self, tmp_path):
        config = WarehouseConfig(journal=True, journal_dir=str(tmp_path))
        assert config.journal_dir == str(tmp_path)

    def test_single_world_testbed_rejects_worker_processes(self):
        with pytest.raises(ValueError, match="build_sharded_testbed"):
            build_testbed(PESSIMISTIC, shard_processes=2)

    def test_single_world_testbed_rejects_shards(self):
        with pytest.raises(ValueError, match="build_sharded_testbed"):
            build_testbed(PESSIMISTIC, shards=3)
        build_testbed(PESSIMISTIC, tuples_per_relation=10, shards=1)


class TestDerivation:
    def test_crash_plan_implies_journal(self):
        assert not WarehouseConfig().journal
        assert WarehouseConfig(crash_plan=CrashPlan.random(1)).journal
        plain = WarehouseConfig()
        assert plain.replace(crash_plan=CrashPlan.random(1)).journal

    def test_view_names(self):
        assert WarehouseConfig().view_names() == ("V",)
        assert sharded_config().view_names() == ("V1", "V2", "V3", "V4")

    def test_frozen_and_picklable(self):
        config = sharded_config(
            strategy=OPTIMISTIC,
            batch_policy=BatchPolicy(max_batch_size=4),
            crash_plan=CrashPlan.random(3),
            fault_plan=FaultPlan.random(5, ("src1", "src2", "src3")),
            parallel_workers=2,
        )
        assert pickle.loads(pickle.dumps(config)) == config
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.shards = 2

    def test_option_count_does_not_grow(self):
        # The distinct knob names the three pre-config builders took.
        assert len(dataclasses.fields(WarehouseConfig)) <= 18


class TestEntryPoints:
    """Each entry point's effective defaults are what they always were."""

    def test_classic_defaults(self):
        config = WarehouseConfig()
        assert config.tuples_per_relation == 2000
        assert config.spans is None and config.shards == 1
        testbed = build_testbed(PESSIMISTIC, tuples_per_relation=10)
        assert testbed.config == config.replace(tuples_per_relation=10)
        assert testbed.manager.view.name == "V"
        assert len(testbed.manager.view.query.relations) == 6

    def test_sharded_defaults(self):
        config = sharded_config()
        assert config.tuples_per_relation == 200
        assert config.spans == SHARDED_SPANS
        testbed = build_sharded_testbed(OPTIMISTIC, tuples_per_relation=10)
        assert testbed.config == config.replace(
            strategy=OPTIMISTIC, tuples_per_relation=10
        )
        assert testbed.runtime is None
        assert len(testbed.warehouse.shards) == 1
        assert sorted(testbed.initial_sizes) == ["V1", "V2", "V3", "V4"]

    def test_span_views_under_one_scheduler(self):
        testbed = build_testbed(
            PESSIMISTIC, tuples_per_relation=10, spans=((0, 3), (2, 6))
        )
        assert [m.view.name for m in testbed.manager.managers] == ["V1", "V2"]
