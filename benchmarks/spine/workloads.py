"""The six workloads, built through the public testbed builders only.

Update counts are the full-size counts (``--scale 1``: each maintain
phase lands in 6-12 s at commit e1c4753 on 2 cores); ``scale``
multiplies every update count.  The seed reaches the workload
generators and the crash plan's hit number and nothing else: sources are
always loaded with the builders' default data seed.

Load model: updates commit on the *virtual* clock at a fixed interval
(open loop -- the schedule never slows when the system does, and a
discrete-event generator is never late); one driver process turns that
schedule into wall-clock compute (closed loop in wall time, 1 client).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.core.strategies import PESSIMISTIC
from repro.experiments.testbed import (
    ShardedTestbed,
    build_sharded_testbed,
    build_testbed,
    make_du_workload,
    make_sc_workload,
)
from repro.recovery import CrashPlan

#: reads replayed at each of the two consistency levels
READS_PER_LEVEL = 200_000
#: OS worker processes of ``shard_procs``, on every machine
SHARD_PROCESSES = 2


@dataclass
class Prepared:
    """A testbed with its workload scheduled, ready to maintain."""

    testbed: object  # Testbed | ShardedTestbed
    #: updates scheduled (each commits exactly once at its source)
    scheduled: int
    #: view name -> extent size after the initial load (version 0 of the
    #: read front end's timelines)
    initial_sizes: dict[str, int]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable[[int, float, Path], Prepared]


def _count(base: int, scale: float) -> int:
    return max(1, round(base * scale))


def _single(testbed, seed, scale, du, du_interval, key_domain=None, sc=0,
            sc_interval=0.0, insert_fraction=0.8) -> Prepared:
    du_count = _count(du, scale)
    testbed.engine.schedule_workload(
        make_du_workload(
            testbed.tuples_per_relation, du_count, 0.05, du_interval,
            insert_fraction=insert_fraction, seed=seed,
            key_domain=key_domain,
        )
    )
    sc_count = _count(sc, scale) if sc else 0
    if sc_count:
        testbed.engine.schedule_workload(
            make_sc_workload(sc_count, 1.0, sc_interval, seed=seed + 4)
        )
    return Prepared(
        testbed, du_count + sc_count, {"V": len(testbed.manager.mv.extent)}
    )


def _du_burst(seed: int, scale: float, tmp: Path) -> Prepared:
    testbed = build_testbed(PESSIMISTIC, tuples_per_relation=2000)
    return _single(testbed, seed, scale, du=1000, du_interval=0.01)


def _du_local(seed: int, scale: float, tmp: Path) -> Prepared:
    testbed = build_testbed(
        PESSIMISTIC, tuples_per_relation=2000, snapshot_cache=True
    )
    # Replicas of src1 only: its probes are answered by the aux store,
    # the other sources' by the snapshot cache or over the wire.
    store = testbed.manager.install_self_maintenance()
    store.seed_from_source(testbed.engine.sources["src1"])
    return _single(
        testbed, seed, scale, du=2000, du_interval=2.0, key_domain=500
    )


def _sc_mixed(seed: int, scale: float, tmp: Path) -> Prepared:
    testbed = build_testbed(PESSIMISTIC, tuples_per_relation=2000)
    # A schema change every 12.5 data updates.  Sized at one every 50,
    # a stream's cost follows the luck of its few merges: streams of
    # equal length differed by a third, against a seventh here.
    return _single(
        testbed, seed, scale, du=2000, du_interval=0.1, sc=160,
        sc_interval=1.25,
    )


def _sqlite_parallel(seed: int, scale: float, tmp: Path) -> Prepared:
    testbed = build_testbed(
        PESSIMISTIC, tuples_per_relation=2000, backend="sqlite",
        parallel_workers=4,
    )
    # Inserts only: a delete intent picks its row by materialising whole
    # relations out of sqlite (90 ms each at this size), which put the
    # generator, not the scheduler or SQL answering, at 70 % of the run.
    return _single(
        testbed, seed, scale, du=2400, du_interval=0.1, insert_fraction=1.0
    )


def _sharded(testbed: ShardedTestbed, seed, scale, du, sc) -> Prepared:
    du_count, sc_count = _count(du, scale), _count(sc, scale)
    testbed.schedule_du_workload(du_count, 0.05, 0.05, seed=seed)
    testbed.schedule_sc_workload(sc_count, 1.0, 9.0, seed=seed + 4)
    if testbed.runtime is not None:
        testbed.runtime.prepare()  # fork the workers, build the worlds
        initial_sizes = testbed.runtime.initial_sizes()
    else:
        initial_sizes = dict(testbed.initial_sizes)
    return Prepared(testbed, du_count + sc_count, initial_sizes)


def _shard_durable(seed: int, scale: float, tmp: Path) -> Prepared:
    # One crash per shard, about a third of the way through its stream.
    crash_hit = _count(100, scale) + seed % 5
    testbed = build_sharded_testbed(
        PESSIMISTIC, shards=4, tuples_per_relation=500, journal=True,
        journal_dir=str(tmp), checkpoint_every=8,
        crash_plan=CrashPlan("serial.post_commit", crash_hit),
    )
    return _sharded(testbed, seed, scale, du=1200, sc=4)


def prepare_shard_procs(
    seed: int,
    scale: float,
    tmp: Path | None = None,
    shard_processes: int = SHARD_PROCESSES,
) -> Prepared:
    """``shard_processes=0`` runs the same specs under the inline
    coordinator: the traced pass's extra run, for
    ``core.runtime.vs_inline_ratio`` and for the per-layer numbers the
    worker processes cannot send home."""
    testbed = build_sharded_testbed(
        PESSIMISTIC, shards=4, tuples_per_relation=500,
        shard_processes=shard_processes,
    )
    return _sharded(testbed, seed, scale, du=4000, sc=8)


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "du_burst",
            "DU burst, queue hundreds deep: SWEEP compensation and the "
            "compiled kernel carry it; detection, cache, aux, recovery "
            "and sharding are bypassed (Fig. 8 in wall time)",
            _du_burst,
        ),
        Workload(
            "du_local",
            "DUs with no concurrency and hot keys: the aux, cache and "
            "wire answer tiers carry it; compensation is bypassed",
            _du_local,
        ),
        Workload(
            "sc_mixed",
            "DUs plus schema changes: detect-and-correct, dependency "
            "graph upkeep, VS/VA, merges and aborts carry it; DU kernels "
            "are a minority",
            _sc_mixed,
        ),
        Workload(
            "sqlite_parallel",
            "parallel scheduler over sqlite sources: dispatch and SQL "
            "answering carry it; the in-memory executor is a minority",
            _sqlite_parallel,
        ),
        Workload(
            "shard_durable",
            "4 inline shards with file journal, checkpoints and one "
            "crash/recovery per shard: durability and the inline "
            "coordinator carry it; worker processes are bypassed",
            _shard_durable,
        ),
        Workload(
            "shard_procs",
            "the same 4 shards in 2 worker processes, no journal: fork, "
            "per-step pipe round trips and collect carry it; durability "
            "is bypassed",
            prepare_shard_procs,
        ),
    )
}
