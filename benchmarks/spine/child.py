"""One repeat of one workload, in a fresh interpreter.

``python -m benchmarks.spine.child '<json request>'`` runs the four
phases -- setup, maintain (drive to quiescence), verify, read replay --
and prints one JSON line.  A fresh process per repeat starts the
process-global plan cache and row-intern tables cold and makes
``ru_maxrss`` the peak of *this* run.  An untraced child carries the
yardstick of ``reference.py`` through its timed phases and reports its
seconds twice: ``end_to_end`` as the undisturbed sizing box would read
them, ``as_measured`` as the clock did.

Request keys: ``workload``, ``seed``, ``scale``, ``traced``,
``spawned_at`` (the parent's ``time.time()`` just before the spawn) and
``tmp`` (a directory of this child's own, removed by the parent).
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def _cpu_s() -> float:
    """User + system CPU of this process and of its waited-for children.

    Worker processes are counted when they are joined, so on
    ``shard_procs`` the workers' world-building lands in the maintain
    phase too: a fixed bias, the same on both sides of a comparison."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in (
            resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN),
        )
    )


def observe(prepared) -> dict:
    """Outputs of a quiescent run, through the public accessors."""
    from repro.experiments.testbed import ShardedTestbed
    from repro.views.consistency import check_convergence

    testbed = prepared.testbed
    if isinstance(testbed, ShardedTestbed):
        extents = testbed.extent_rows()
        clocks = testbed.shard_clocks()
        consistent = testbed.check_consistency()
        shards = testbed.warehouse.shards if testbed.warehouse else []
        engines = [shard.engine for shard in shards]
        harnesses = [shard.recovery for shard in shards]
    else:
        extents = {
            "V": sorted(map(tuple, testbed.manager.mv.extent.rows()))
        }
        clocks = {0: testbed.engine.clock.now}
        consistent = check_convergence(testbed.manager).consistent
        engines = [testbed.engine]
        harnesses = [testbed.recovery]
    resolved = set(testbed.committed_updates())
    for harness in harnesses:
        if harness is not None:
            resolved |= harness.skipped_refs()
    failures = []
    if not consistent:
        failures.append("a view differs from its recompute")
    # Worker processes keep their sources; there the count must match.
    if engines:
        logged = {
            (message.source, message.seqno)
            for source in engines[0].sources.values()
            for message in source.updates_since(0)
        }
        if resolved != logged:
            failures.append(
                "committed + journal-skipped updates differ from the "
                "sources' commit logs"
            )
    metrics = testbed.metrics
    digest = hashlib.sha256(
        json.dumps(
            [
                sorted(extents.items()),
                sorted(resolved),
                sorted(clocks.items()),
                metrics.aborts,
            ]
        ).encode()
    ).hexdigest()
    return {
        "resolved": len(resolved),
        "failures": failures,
        "digest": digest,
        "metrics": metrics,
    }


def front_end_of(prepared):
    from repro.experiments.testbed import ShardedTestbed
    from repro.frontend.reads import ReadFrontEnd

    testbed = prepared.testbed
    if isinstance(testbed, ShardedTestbed):
        return testbed.read_front_end()
    engine = testbed.engine
    return ReadFrontEnd.from_install_logs(
        {0: engine.install_log},
        {"V": 0},
        prepared.initial_sizes,
        engine.cost_model,
        engine.clock.now,
    )


def run(request: dict) -> dict:
    seed, scale = request["seed"], request["scale"]
    tracer = undo = layer = trace = restored = None
    # End-to-end numbers come from untraced children: those carry the
    # yardstick, from here on so that it covers the rest of the set-up.
    yardstick = None
    if not request["traced"]:
        from benchmarks.spine.reference import Reference, undisturbed

        yardstick = Reference()
        yardstick.start()

    def taken() -> dict:
        if yardstick is None:
            return {"speed": 1.0, "samples": 0, "wall_s": 0.0, "cpu_s": 0.0}
        return yardstick.take()

    if request["traced"]:
        from benchmarks.spine import layers, tracing

        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
    from benchmarks.spine import workloads
    from repro.frontend.reads import (
        READ_COMMITTED_VERSION,
        READ_LATEST,
        ReadWorkload,
    )
    from repro.relational.plan import plan_cache_stats

    # -- setup ----------------------------------------------------------
    workload = workloads.WORKLOADS[request["workload"]]
    prepared = workload.prepare(seed, scale, Path(request["tmp"]))
    setup_s = time.time() - request["spawned_at"]
    setup = taken()
    setup_s -= setup["wall_s"]

    # -- maintain -------------------------------------------------------
    def maintain(testbed) -> dict:
        gc.collect()
        if tracer is not None:
            tracer.reset()
        plans = plan_cache_stats()
        cpu = _cpu_s()
        started = time.perf_counter()
        testbed.run()
        wall_s = time.perf_counter() - started
        cpu_s = _cpu_s() - cpu
        box = taken()
        return {
            "wall_s": wall_s - box["wall_s"],
            "cpu_s": cpu_s - box["cpu_s"],
            "box": box,
            "frames": tracer.take() if tracer is not None else None,
            "plan_cache": {
                key: value - plans[key]
                for key, value in plan_cache_stats().items()
            },
        }

    phase = maintain(prepared.testbed)
    seen = observe(prepared)
    failures = list(seen["failures"])
    if tracer is not None:
        runtime = getattr(prepared.testbed, "runtime", None)
        timings = runtime.timings if runtime is not None else {}
        layer = {
            "core.runtime.prepare_s": timings.get("prepare", 0.0),
            "core.runtime.execute_s": timings.get("execute", 0.0),
            "core.runtime.collect_s": timings.get("collect", 0.0),
            "core.runtime.vs_inline_ratio": 0.0,
        }
        measured, measured_phase = seen, phase
        if runtime is not None:
            # The workers cannot send their frames home: run the same
            # specs under the inline coordinator for the layer numbers.
            twin = workloads.prepare_shard_procs(
                seed, scale, shard_processes=0
            )
            measured_phase = maintain(twin.testbed)
            measured = observe(twin)
            layer["core.runtime.vs_inline_ratio"] = (
                measured_phase["wall_s"] / phase["wall_s"]
            )
            if measured["digest"] != seen["digest"]:
                failures.append("process and inline runs disagree")
        layer.update(
            layers.maintain_metrics(
                measured_phase["frames"],
                measured["metrics"],
                measured_phase["plan_cache"],
                measured_phase["wall_s"],
                measured["resolved"],
            )
        )
        trace = {"maintain": measured_phase["frames"].export()}
        if runtime is not None:
            trace["process_run"] = phase["frames"].export()
        tracer.reset()  # drop the verification's frames

    # -- read replay ----------------------------------------------------
    gc.collect()
    started = time.perf_counter()
    front_end = front_end_of(prepared)
    served = sum(
        front_end.serve(
            ReadWorkload(count=workloads.READS_PER_LEVEL, seed=seed + offset),
            level,
        ).count
        for offset, level in ((17, READ_LATEST), (18, READ_COMMITTED_VERSION))
    )
    reads_s = time.perf_counter() - started
    replay = taken()
    reads_s -= replay["wall_s"]
    reads = 2 * workloads.READS_PER_LEVEL
    if yardstick is not None:
        yardstick.stop()

    if tracer is not None:
        layer.update(layers.frontend_metrics(tracer, front_end))
        trace["read_replay"] = tracer.export()
        tracing.uninstall(undo)
        restored = tracing.restored(undo)

    rss_kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    resolved = seen["resolved"]
    as_measured = {
        "setup_s": setup_s,
        "updates_per_s": resolved / phase["wall_s"],
        "cpu_ms_per_update": 1000.0 * phase["cpu_s"] / max(resolved, 1),
        "reads_per_s": served / reads_s,
        "peak_rss_mb": rss_kib / 1024.0,
    }
    end_to_end = None
    if yardstick is not None:
        wall_s, cpu_s = undisturbed(
            phase["wall_s"], phase["cpu_s"], phase["box"]["speed"]
        )
        end_to_end = {
            "setup_s": setup_s * setup["speed"],
            "updates_per_s": resolved / wall_s,
            "cpu_ms_per_update": 1000.0 * cpu_s / max(resolved, 1),
            "reads_per_s": served / (reads_s * replay["speed"]),
            "peak_rss_mb": as_measured["peak_rss_mb"],
        }
    return {
        "ops_attempted": prepared.scheduled + reads,
        "ops_failed": abs(prepared.scheduled - resolved)
        + (reads - served)
        + len(failures),
        "failures": failures,
        "digest": seen["digest"],
        "maintain_s": phase["wall_s"],
        "end_to_end": end_to_end,
        "as_measured": as_measured,
        "box_speed": {
            "setup": setup["speed"],
            "maintain": phase["box"]["speed"],
            "read_replay": replay["speed"],
        },
        "per_layer": layer,
        "trace": trace,
        "restored": restored,
    }


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
