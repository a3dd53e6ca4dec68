"""The process-parallel runtime is bit-identical to the inline oracle.

Shard worlds are interleaving-invariant (each owns its whole world; the
cross-shard SC barrier is a scheduling preference, not a correctness
dependency), and one coordinator drives them over either transport, so
executing them across OS worker processes (:mod:`repro.core.runtime`)
must reproduce the in-process
:class:`~repro.core.sharding.ShardedWarehouse` results byte for byte:
per-view extents, the union of committed ``(source, seqno)`` sets, and
every shard's final virtual clock — across strategies x fault plans x
crash plans x parallel workers x process counts.

A dead worker *process* (as opposed to a crashed scheduler, which
recovers from its journal inside the worker) must surface as a clean
``RuntimeError`` in the parent, never a hang.
"""

from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runtime import ProcessShardRuntime, WorkerDied
from repro.core.sharding import ShardStatus, plan_round
from repro.core.strategies import OPTIMISTIC, PESSIMISTIC
from repro.experiments.testbed import (
    build_shard_world,
    build_sharded_testbed,
    du_stream,
    plan_shards,
    sharded_config,
)
from repro.faults.plan import FaultPlan
from repro.recovery import CrashPlan
from repro.sim.metrics import Metrics

strategies = st.sampled_from([PESSIMISTIC, OPTIMISTIC])


def _run(
    strategy,
    processes,
    seed,
    du_count,
    sc_count=0,
    workers=None,
    fault_seed=None,
    crash_seed=None,
    tmp_path=None,
):
    kwargs = {}
    if fault_seed is not None:
        kwargs["fault_plan"] = FaultPlan.random(
            fault_seed,
            sources=("src1", "src2", "src3"),
            horizon=2.0,
            max_crashes=1,
            crash_length=(0.1, 0.4),
        )
    if crash_seed is not None:
        kwargs["journal"] = True
        kwargs["crash_plan"] = CrashPlan.random(crash_seed)
        kwargs["journal_dir"] = tmp_path / f"procs-{processes}"
    testbed = build_sharded_testbed(
        strategy,
        shards=4,
        tuples_per_relation=30,
        parallel_workers=workers,
        shard_processes=processes,
        **kwargs,
    )
    testbed.schedule_du_workload(
        du_count, start=0.05, interval=0.05, seed=seed
    )
    if sc_count:
        testbed.schedule_sc_workload(
            sc_count, start=0.6, interval=4.0, seed=seed + 4
        )
    testbed.run()
    assert testbed.check_consistency()
    return (
        testbed.extent_rows(),
        testbed.committed_updates(),
        testbed.shard_clocks(),
    )


@given(strategies, st.sampled_from([1, 2, 4]), st.integers(0, 40))
@settings(max_examples=8, deadline=None)
def test_du_streams_match_inline(strategy, processes, seed):
    oracle = _run(strategy, 0, seed, 12)
    assert _run(strategy, processes, seed, 12) == oracle


@given(strategies, st.sampled_from([2, 4]), st.integers(0, 20))
@settings(max_examples=4, deadline=None)
def test_sc_barrier_protocol_matches_inline(strategy, processes, seed):
    oracle = _run(strategy, 0, seed, 12, sc_count=2)
    assert _run(strategy, processes, seed, 12, sc_count=2) == oracle


@given(st.sampled_from([2, 4]), st.integers(0, 20), st.sampled_from([2, 3]))
@settings(max_examples=4, deadline=None)
def test_parallel_workers_inside_workers_match_inline(
    processes, seed, workers
):
    oracle = _run(PESSIMISTIC, 0, seed, 12, workers=workers)
    assert _run(PESSIMISTIC, processes, seed, 12, workers=workers) == oracle


@given(st.sampled_from([2, 4]), st.integers(0, 20), st.integers(1, 12))
@settings(max_examples=4, deadline=None)
def test_transient_faults_match_inline(processes, seed, fault_seed):
    oracle = _run(PESSIMISTIC, 0, seed, 12, fault_seed=fault_seed)
    assert (
        _run(PESSIMISTIC, processes, seed, 12, fault_seed=fault_seed)
        == oracle
    )


def test_spawned_workers_match_inline(monkeypatch):
    # Only ``fork`` runs elsewhere on Linux.  ``prepare`` picks the
    # start method from what the platform offers, so offering only
    # ``spawn`` exercises the pickled-by-reference builder and workload
    # factories end to end.
    import multiprocessing

    oracle = _run(PESSIMISTIC, 0, 3, 8, sc_count=1)
    monkeypatch.setattr(
        multiprocessing, "get_all_start_methods", lambda: ["spawn"]
    )
    assert _run(PESSIMISTIC, 2, 3, 8, sc_count=1) == oracle


def test_crash_recovery_inside_workers_matches_inline(tmp_path):
    # CrashPlan.random(1) fires at this scale; the scheduler crash
    # recovers from the shard's own journal INSIDE the worker process,
    # and the recovered state shipped home must equal both the crashed
    # inline run and the uncrashed base run.
    base = _run(PESSIMISTIC, 0, 9, 16)
    oracle = _run(PESSIMISTIC, 0, 9, 16, crash_seed=1, tmp_path=tmp_path)
    processed = _run(
        PESSIMISTIC, 2, 9, 16, crash_seed=1, tmp_path=tmp_path
    )
    # Inline-vs-process identity is total: extents, committed sets AND
    # per-shard clocks (recovery cost charged identically).
    assert processed == oracle
    # Against the UNCRASHED base only extents + committed sets match:
    # recovery legitimately charges extra virtual time, so clocks move.
    assert oracle[:2] == base[:2]


def test_read_front_end_matches_inline():
    from repro.frontend.reads import (
        READ_COMMITTED_VERSION,
        READ_LATEST,
        ReadWorkload,
    )

    def front_end(processes):
        testbed = build_sharded_testbed(
            PESSIMISTIC,
            shards=4,
            tuples_per_relation=40,
            shard_processes=processes,
        )
        testbed.schedule_du_workload(10, start=0.05, interval=0.05, seed=7)
        testbed.schedule_sc_workload(1, start=1.0, interval=9.0, seed=11)
        testbed.run()
        return testbed.read_front_end()

    inline, processed = front_end(0), front_end(2)
    workload = ReadWorkload(count=2000)
    for level in (READ_LATEST, READ_COMMITTED_VERSION):
        assert inline.serve(workload, level) == processed.serve(
            workload, level
        )


def test_both_drivers_answer_the_same_surface():
    # ShardedTestbed never asks which driver it has: the inline
    # coordinator and the process runtime answer every accessor it
    # delegates to, with equal values.  They are one coordinator over
    # two transports, so on a DU+SC stream that crosses the barrier
    # even the counters agree.
    def quiescent(strategy, processes):
        testbed = build_sharded_testbed(
            strategy,
            shards=4,
            tuples_per_relation=24,
            shard_processes=processes,
        )
        testbed.schedule_du_workload(12, start=0.05, interval=0.05, seed=7)
        testbed.schedule_sc_workload(2, start=0.6, interval=4.0, seed=11)
        testbed.prepare()
        sizes_before_run = testbed.initial_sizes
        testbed.run()
        assert testbed.initial_sizes == sizes_before_run
        return testbed

    for strategy in (PESSIMISTIC, OPTIMISTIC):
        inline, processed = quiescent(strategy, 0), quiescent(strategy, 2)
        assert inline.runtime is None and processed.warehouse is None
        assert inline.driver is inline.warehouse
        assert processed.driver is processed.runtime
        assert inline.initial_sizes == processed.initial_sizes
        assert inline.check_consistency() and processed.check_consistency()
        for accessor in (
            "extent_rows",
            "committed_updates",
            "shard_clocks",
            "cost_model",
            "horizon",
            "install_logs",
            "aggregate_makespan",
        ):
            assert getattr(inline.driver, accessor)() == getattr(
                processed.driver, accessor
            )(), accessor
        assert inline.metrics.barrier_deferrals > 0
        # Every count, per shard: each world owns its plan cache, so even
        # its hits do not depend on which shards share a process.
        shards = inline.driver._states(), processed.driver._states()
        assert shards[0].keys() == shards[1].keys()
        for shard_id, state in shards[0].items():
            ours = shards[1][shard_id]["metrics"]
            for spec in fields(Metrics):
                assert getattr(state["metrics"], spec.name) == getattr(
                    ours, spec.name
                ), (strategy.name, shard_id, spec.name)
        assert inline.metrics == processed.metrics


# ----------------------------------------------------------------------
# worker-process death
# ----------------------------------------------------------------------


@pytest.mark.parametrize("kill_round", [0, 2])
def test_worker_death_raises_clean_runtime_error(kill_round):
    # Kill shard 1's worker at the given coordinator round (hard
    # os._exit inside the worker): the coordinator must detect the
    # closed pipe and raise — a WorkerDied (a RuntimeError) naming the
    # worker — not hang.
    config = sharded_config(shards=4, tuples_per_relation=24)
    runtime = ProcessShardRuntime(
        plan_shards(config),
        build_shard_world,
        processes=2,
        reply_timeout=60.0,
        kill_shard_after=(1, kill_round),
    )
    runtime.add_workload_spec(du_stream(config, 8, 0.05, 0.05, seed=7))
    with pytest.raises(RuntimeError, match="died"):
        runtime.run()
    # The fleet is torn down; no worker is left running.
    assert all(not w.process.is_alive() for w in runtime._workers)


# ----------------------------------------------------------------------
# coordinator policy unit checks (no processes involved)
# ----------------------------------------------------------------------


def _status(shard_id, **overrides):
    defaults = dict(
        shard_id=shard_id,
        quiescent=False,
        clock_now=1.0,
        barrier_at=None,
        min_pending_commit=None,
        pool_busy=False,
        has_next_event=True,
    )
    defaults.update(overrides)
    return ShardStatus(**defaults)


def test_plan_round_steps_all_runnable_by_clock_order():
    statuses = {
        0: _status(0, clock_now=3.0),
        1: _status(1, clock_now=1.0),
        2: _status(2, quiescent=True),
    }
    steps, holds, release = plan_round(statuses)
    assert steps == [1, 0]  # (clock, shard_id) order, quiescent skipped
    assert holds == [] and release is None


def test_plan_round_holds_sc_head_behind_blocking_peer():
    statuses = {
        0: _status(0, barrier_at=2.0),
        1: _status(1, min_pending_commit=1.5),  # holds earlier work
    }
    steps, holds, release = plan_round(statuses)
    assert holds == [0] and steps == [1] and release is None


def test_plan_round_releases_earliest_sc_on_circular_wait():
    statuses = {
        0: _status(0, barrier_at=2.0, min_pending_commit=1.0),
        1: _status(1, barrier_at=1.8, min_pending_commit=1.1),
    }
    steps, holds, release = plan_round(statuses)
    assert release == 1  # earliest barrier wins
    assert holds == [0] and steps == []


def test_plan_round_quiescent_world_terminates():
    statuses = {0: _status(0, quiescent=True)}
    assert plan_round(statuses) == ([], [], None)


def test_worker_died_is_a_runtime_error():
    assert issubclass(WorkerDied, RuntimeError)
