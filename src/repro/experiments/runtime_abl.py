"""ABL-13: the multi-core runtime ablation — inline vs process-parallel.

Like ABL-12 this figure reports **wall-clock** seconds (``timebase:
"wall"``): the process runtime is not allowed to move a single virtual
number — the equivalence tests and this figure's own identity checks
hold extents, committed sets and per-shard virtual clocks byte-identical
across process counts — so its entire effect is how many cores execute
the shard worlds.

Arms, per point of the process-count sweep over the 4-subview sharded
testbed (x = worker processes; 0 = the inline coordinator oracle):

* ``build_s`` — world construction (inline: the four worlds built
  serially in-process; N processes: fork + per-worker builds, which
  parallelize too);
* ``exec_s`` — driving the worlds to quiescence (the maintenance work
  itself; for process arms this is the coordinator-round phase plus
  state collection);
* ``total_s`` and the headline ``speedup`` (inline total / arm total),
  plus ``exec_speedup`` on the execution phase alone;
* ``plan_cache_hits`` / ``plan_cache_recompiles`` — kernel cache
  efficiency summed over shards.  Fork-started workers inherit the
  parent's warm plan cache, so process arms can report *fewer*
  recompiles than inline; under a spawn start method each worker
  compiles its own cache instead.

Every process arm must be **byte-identical** to inline: extents,
committed ``(source, seqno)`` sets and per-shard virtual clocks.  A set
of hardened identity arms (optimistic strategy, fault plan, crash plan,
parallel workers) re-proves identity under adversarial configurations at
small scale.  Any divergence clears the figure's consistency bit.

The speedup bar (>= 1.8x at 4 processes) is only meaningful on a
machine with >= 4 cores; the benchmark gates its assertion on
``os.sched_getaffinity`` and records numbers unconditionally.
"""

from __future__ import annotations

from dataclasses import replace

from ..core.strategies import OPTIMISTIC
from ..faults.plan import FaultPlan
from ..recovery import CrashPlan
from .config import WarehouseConfig
from .runner import ArmResult, FigureResult, ratio, run_arm
from .testbed import (
    SOURCE_NAMES,
    ShardedTestbed,
    du_stream,
    sc_stream,
    sharded_config,
)


def _sharded_arm(
    config: WarehouseConfig, du_count: int, sc_count: int, workload_seed: int
) -> ArmResult:
    """One full run of the 4-shard warehouse, inline or in
    ``config.shard_processes`` workers.  A process arm is timed by the
    runtime's own phase clocks: ``build_s`` is its ``prepare`` (fork +
    per-worker builds), ``run_s`` its ``execute`` + ``collect`` — not
    planning, scheduling or fleet shutdown."""
    stream = [du_stream(config, du_count, 0.05, 0.05, seed=workload_seed)]
    if sc_count:
        stream.append(sc_stream(sc_count, 1.0, 9.0, seed=workload_seed + 4))
    arm = run_arm(config, stream, ShardedTestbed)
    if not config.shard_processes:
        return arm
    timings = arm.testbed.runtime.timings
    return replace(
        arm,
        build_s=timings["prepare"],
        run_s=timings["execute"] + timings["collect"],
    )


def _check_identity(result, label, oracle: ArmResult, arm: ArmResult) -> None:
    for name, expected, actual in (
        ("extents", oracle.extents, arm.extents),
        ("committed set", oracle.committed, arm.committed),
        (
            "shard clocks",
            oracle.testbed.shard_clocks(),
            arm.testbed.shard_clocks(),
        ),
    ):
        result.require(
            expected == actual,
            f"{label}: {name} diverged from the inline oracle",
        )


#: label -> config delta of one hardened identity arm
HARDENED_ARMS = (
    ("optimistic", dict(strategy=OPTIMISTIC)),
    ("fault-plan", dict(fault_plan=FaultPlan.random(5, SOURCE_NAMES))),
    ("crash-plan", dict(crash_plan=CrashPlan.random(9))),
    ("workers=2", dict(parallel_workers=2)),
)


def run_runtime_ablation(
    config: WarehouseConfig = sharded_config(
        tuples_per_relation=120, shards=4
    ),
    process_counts: tuple[int, ...] = (0, 1, 2, 4),
    du_count: int = 48,
    sc_count: int = 2,
    workload_seed: int = 5,
    repeats: int = 2,
    identity_arms: bool = True,
) -> FigureResult:
    """Measure inline vs N-process wall time; prove result identity."""
    result = FigureResult(
        figure_id="ABL-13-runtime",
        title="Multi-core shard runtime: inline vs process-parallel",
        x_label="worker processes (0 = inline)",
        series_names=[
            "build_s",
            "exec_s",
            "total_s",
            "speedup",
            "exec_speedup",
            "plan_cache_hits",
            "plan_cache_recompiles",
        ],
        timebase="wall",
    )
    counts = list(process_counts)
    if 0 not in counts:
        counts.insert(0, 0)  # the oracle arm anchors every comparison
    inline = None
    for processes in counts:
        best = min(
            (
                _sharded_arm(
                    config.replace(shard_processes=processes),
                    du_count,
                    sc_count,
                    workload_seed,
                )
                for _ in range(repeats)
            ),
            key=lambda arm: arm.build_s + arm.run_s,
        )
        if processes == 0:
            inline = best
        else:
            _check_identity(result, f"{processes} processes", inline, best)
        total_s = best.build_s + best.run_s
        result.add(
            processes,
            build_s=best.build_s,
            exec_s=best.run_s,
            total_s=total_s,
            speedup=ratio(inline.build_s + inline.run_s, total_s),
            exec_speedup=ratio(inline.run_s, best.run_s),
            plan_cache_hits=best.metrics.plan_cache_hits,
            plan_cache_recompiles=best.metrics.plan_cache_recompiles,
        )
    if identity_arms:
        _run_hardened_arms(result, config, workload_seed)
    return result


def _run_hardened_arms(
    result: FigureResult, config: WarehouseConfig, workload_seed: int
) -> None:
    """Re-prove inline/process identity under adversarial configs.

    Small scale, 2 processes: the point is configuration coverage
    (strategy x faults x crashes x workers), not timing.
    """
    small = config.replace(tuples_per_relation=48)
    for label, delta in HARDENED_ARMS:
        oracle, arm = (
            _sharded_arm(
                small.replace(shard_processes=processes, **delta),
                10,
                1,
                workload_seed,
            )
            for processes in (0, 2)
        )
        _check_identity(result, f"hardened[{label}]", oracle, arm)
        if result.consistent:
            result.notes.append(f"hardened[{label}]: identical")
