"""A world's counts are a function of that world.

Each engine owns its compiled-plan cache, so what one world reports
cannot depend on what ran before it in the process: the same arm run
twice reports equal ``Metrics``, every field.  The process-wide totals
of :func:`~repro.relational.plan.plan_cache_stats` — what the benchmark
spine's child reads around ``testbed.run()`` — move over a run by
exactly the counts of the world (or inline shard set) that ran."""

from dataclasses import fields

import pytest

from repro.core.strategies import PESSIMISTIC
from repro.experiments import testbed as worlds
from repro.experiments.config import WarehouseConfig
from repro.experiments.runner import run_arm
from repro.experiments.testbed import du_stream, sc_stream, sharded_config
from repro.relational.plan import plan_cache_stats
from repro.sim.metrics import Metrics

ONE_WORLD = WarehouseConfig(strategy=PESSIMISTIC, tuples_per_relation=200)
SHARDS = sharded_config(
    strategy=PESSIMISTIC, shards=4, tuples_per_relation=200
)


def _workload(config: WarehouseConfig):
    """60 data updates 0.2 s apart, with four schema changes among them."""
    return (
        du_stream(config, 60, 0.0, 0.2, seed=7),
        sc_stream(4, 1.0, 3.0, seed=3),
    )


def _plan_counts(metrics: Metrics) -> dict[str, int]:
    return {
        "hits": metrics.plan_cache_hits,
        "misses": metrics.plan_cache_recompiles,
        "evictions": metrics.plan_cache_evictions,
    }


def test_the_same_arm_twice_in_one_process_counts_the_same():
    first, second = (
        run_arm(ONE_WORLD, _workload(ONE_WORLD)).metrics for _ in range(2)
    )
    moved = [
        spec.name
        for spec in fields(Metrics)
        if getattr(first, spec.name) != getattr(second, spec.name)
    ]
    assert moved == []
    assert second.plan_cache_recompiles > 0  # the second world compiles too


@pytest.mark.parametrize(
    "config, world",
    [(ONE_WORLD, worlds.Testbed), (SHARDS, worlds.ShardedTestbed)],
    ids=["one-world", "inline-shards"],
)
def test_process_totals_move_by_the_running_worlds_counts(config, world):
    testbed = world.build(config)
    testbed.schedule(*_workload(config))
    testbed.prepare()
    counted, before = _plan_counts(testbed.metrics), plan_cache_stats()
    testbed.run()
    after = plan_cache_stats()
    world_delta = {
        key: value - counted[key]
        for key, value in _plan_counts(testbed.metrics).items()
    }
    process_delta = {key: after[key] - before[key] for key in world_delta}
    assert process_delta == world_delta
    # a fresh world compiles its own plans, whatever ran before it
    assert world_delta["hits"] > 0 and world_delta["misses"] > 0
