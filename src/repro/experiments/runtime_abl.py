"""ABL-13: the multi-core runtime ablation — inline vs process-parallel.

Like ABL-12 this figure reports **wall-clock** seconds: the process
runtime may not move a single virtual number, so its entire effect is
how many cores execute the shard worlds.  Per point of the
process-count sweep over the 4-subview sharded testbed (x = worker
processes; 0 = the inline coordinator, the oracle): ``build_s`` (world
construction — for N processes fork + per-worker builds), ``exec_s``
(driving the worlds to quiescence, plus state collection), their
``total_s``, the headline ``speedup`` (inline total / arm total) and
``exec_speedup``, and the kernel's plan-cache hits / recompiles summed
over shards (fork-started workers inherit the parent's warm cache, so
process arms can report *fewer* recompiles than inline).

Every process arm must be **byte-identical** to inline — extents,
committed ``(source, seqno)`` sets and per-shard virtual clocks — and a
set of hardened arms re-proves that under adversarial configurations at
small scale.  That identity is the row's bar; the speedup bar (>= 1.8x
at 4 processes) needs >= 4 cores, so ``benchmarks/bench_runtime.py``
gates it on ``os.sched_getaffinity``.
"""

from __future__ import annotations

from dataclasses import replace

from ..core.strategies import OPTIMISTIC
from .ablations import hardened_arms
from .config import WarehouseConfig
from .runner import (
    ArmResult,
    FigureResult,
    ratio,
    require_identical,
    run_arm,
)
from .testbed import ShardedTestbed, du_stream, sc_stream


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


def _require_identical(result, label, arm: ArmResult, inline: ArmResult):
    """Identical to the inline oracle, per-shard virtual clocks too."""
    require_identical(result, label, arm, inline)
    result.require(
        arm.testbed.shard_clocks() == inline.testbed.shard_clocks(),
        f"{label}: shard clocks diverged from the inline oracle",
    )


def run_runtime_ablation(
    config: WarehouseConfig,
    du_count: int,
    repeats: int,
    process_counts: tuple[int, ...] = (0, 1, 2, 4),
    sc_count: int = 2,
    workload_seed: int = 5,
) -> FigureResult:
    """Measure inline vs N-process wall time; prove result identity.
    A nonzero ``config.shard_processes`` narrows the sweep to inline vs
    that many processes."""
    result = FigureResult(
        figure_id="ABL-13-runtime",
        title="Multi-core shard runtime: inline vs process-parallel",
        x_label="worker processes (0 = inline)",
    )
    counts = list(process_counts)
    if config.shard_processes:
        counts = [config.shard_processes]
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
            _require_identical(
                result, f"{processes} processes", best, inline
            )
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
    # Re-prove inline/process identity under adversarial configs, at
    # small scale and 2 processes: the point is configuration coverage
    # (strategy x faults x crashes x workers), not timing.
    small = config.replace(tuples_per_relation=48)
    for label, delta, _ in (
        ("optimistic", {"strategy": OPTIMISTIC}, ()),
        *hardened_arms(fault_seed=5, crash_seed=9),
    ):
        oracle, arm = (
            _sharded_arm(
                small.replace(shard_processes=processes, **delta),
                10,
                1,
                workload_seed,
            )
            for processes in (0, 2)
        )
        _require_identical(result, f"hardened[{label}]", arm, oracle)
        if result.consistent:
            result.notes.append(f"hardened[{label}]: identical")
    return result
