"""Per-layer metrics of the traced pass.

A layer is a package under ``src/repro``.  ``busy_s`` is always *self*
time: the summed duration of the layer's frames minus the frames opened
inside them (see :mod:`benchmarks.spine.tracing`).  Counters that the
program already keeps (aborts, cache hits, round trips ...) are read
from its public ``Metrics`` object, so a ratio is measured where the
work happens.
"""

from __future__ import annotations

#: (name, unit, better) of every per-layer metric, in report order;
#: ``BENCHMARK.json``'s ``per_layer`` lists exactly these
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("core.scheduler.steps", "count", "lower"),
    ("core.scheduler.step_ms_p50", "ms", "lower"),
    ("core.scheduler.step_ms_p90", "ms", "lower"),
    ("core.scheduler.step_ms_p99", "ms", "lower"),
    ("core.detect_correct.calls", "count", "lower"),
    ("core.detect_correct.busy_s", "s", "lower"),
    ("core.detect_correct.share", "ratio", "lower"),
    ("core.incremental.busy_s", "s", "lower"),
    ("core.aborts", "count", "lower"),
    ("core.useful_round_ratio", "ratio", "higher"),
    ("core.parallel.self_s", "s", "lower"),
    ("core.sharding.coord_self_s", "s", "lower"),
    ("core.runtime.prepare_s", "s", "lower"),
    ("core.runtime.execute_s", "s", "lower"),
    ("core.runtime.collect_s", "s", "lower"),
    ("core.runtime.vs_inline_ratio", "ratio", "higher"),
    ("relational.execute.calls", "count", "lower"),
    ("relational.execute.busy_s", "s", "lower"),
    ("relational.plan_cache.hits", "count", "higher"),
    ("relational.plan_cache.recompiles", "count", "lower"),
    ("relational.plan_cache.evictions", "count", "lower"),
    ("maintenance.compensate.calls", "count", "lower"),
    ("maintenance.compensate.busy_s", "s", "lower"),
    ("maintenance.compensate.pending_mean", "count", "lower"),
    ("maintenance.vm.busy_s", "s", "lower"),
    ("maintenance.vs.calls", "count", "lower"),
    ("maintenance.vs.busy_s", "s", "lower"),
    ("maintenance.va.calls", "count", "lower"),
    ("maintenance.va.busy_s", "s", "lower"),
    ("maintenance.batch.merged_ratio", "ratio", "higher"),
    ("maintenance.selfmaint.serve.calls", "count", "lower"),
    ("maintenance.selfmaint.hit_ratio", "ratio", "higher"),
    ("maintenance.selfmaint.busy_s", "s", "lower"),
    ("cache.serve.calls", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.patched_ratio", "ratio", "lower"),
    ("cache.busy_s", "s", "lower"),
    ("sources.execute.calls", "count", "lower"),
    ("sources.execute.busy_s", "s", "lower"),
    ("sources.commit.busy_s", "s", "lower"),
    ("sources.round_trips", "count", "lower"),
    ("views.build_maintenance.calls", "count", "lower"),
    ("views.manager.busy_s", "s", "lower"),
    ("views.umq.receive.busy_s", "s", "lower"),
    ("views.umq.depth_mean", "count", "lower"),
    ("views.umq.depth_max", "count", "lower"),
    ("sim.run_process.calls", "count", "lower"),
    ("sim.engine.busy_s", "s", "lower"),
    ("recovery.journal.appends", "count", "lower"),
    ("recovery.journal.append_busy_s", "s", "lower"),
    ("recovery.checkpoint.count", "count", "lower"),
    ("recovery.checkpoint.busy_s", "s", "lower"),
    ("recovery.recover.count", "count", "lower"),
    ("recovery.recover.busy_s", "s", "lower"),
    ("recovery.bytes_per_update", "B/update", "lower"),
    ("frontend.build.busy_s", "s", "lower"),
    ("frontend.serve.busy_s", "s", "lower"),
    ("frontend.versions", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def percentile(values: list[float], share: float, at_least: int) -> float:
    """The ``share`` quantile, or 0.0 with fewer than ``at_least``
    samples: a percentile needs ten samples beyond it to mean anything."""
    if len(values) < at_least:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * share))]


def maintain_metrics(
    tracer, metrics, plan_cache: dict, maintain_s: float, committed: int
) -> dict[str, float]:
    """Everything measured over one traced maintain phase.

    ``metrics`` is the run's public (aggregated) ``Metrics`` object,
    ``plan_cache`` the ``plan_cache_stats()`` delta over the phase."""
    calls, self_s, counters = tracer.calls, tracer.self_s, tracer.counters
    steps_ms = [
        1000.0 * duration
        for duration in tracer.durations(
            "core.scheduler.step", "core.parallel.step"
        )
    ]
    depths = tracer.umq_depths
    rounds = metrics.maintenance_rounds
    return {
        "core.scheduler.steps": len(steps_ms),
        "core.scheduler.step_ms_p50": percentile(steps_ms, 0.50, 20),
        "core.scheduler.step_ms_p90": percentile(steps_ms, 0.90, 100),
        "core.scheduler.step_ms_p99": percentile(steps_ms, 0.99, 1000),
        "core.detect_correct.calls": calls("core.detect_correct"),
        "core.detect_correct.busy_s": self_s("core.detect_correct"),
        # Inclusive: the corrected order's installation and the graph
        # upkeep it triggers are part of what detection costs.
        "core.detect_correct.share": _ratio(
            tracer.total_s("core.detect_correct"), maintain_s
        ),
        "core.incremental.busy_s": self_s("core.incremental"),
        "core.aborts": metrics.aborts,
        "core.useful_round_ratio": _ratio(rounds, rounds + metrics.aborts),
        "core.parallel.self_s": self_s("core.parallel"),
        "core.sharding.coord_self_s": self_s("core.sharding.run"),
        "relational.execute.calls": calls("relational.execute"),
        "relational.execute.busy_s": self_s("relational.execute"),
        "relational.plan_cache.hits": plan_cache["hits"],
        "relational.plan_cache.recompiles": plan_cache["misses"],
        "relational.plan_cache.evictions": plan_cache["evictions"],
        "maintenance.compensate.calls": calls("maintenance.compensate"),
        # effect_on_answer also patches cached answers forward: its time
        # goes to whichever of the two called it.
        "maintenance.compensate.busy_s": self_s("maintenance.compensate")
        + tracer.edge_self_s(
            "maintenance.compensate", "maintenance.effect_on_answer"
        ),
        "maintenance.compensate.pending_mean": _ratio(
            counters["maintenance.compensate.pending"],
            calls("maintenance.compensate"),
        ),
        "maintenance.vm.busy_s": self_s("maintenance.vm"),
        "maintenance.vs.calls": calls("maintenance.vs"),
        "maintenance.vs.busy_s": self_s("maintenance.vs"),
        "maintenance.va.calls": counters["maintenance.va.started"],
        "maintenance.va.busy_s": self_s("maintenance.va"),
        "maintenance.batch.merged_ratio": _ratio(
            metrics.maintained_updates, rounds
        ),
        "maintenance.selfmaint.serve.calls": calls(
            "maintenance.selfmaint.serve"
        ),
        "maintenance.selfmaint.hit_ratio": _ratio(
            metrics.aux_hits, calls("maintenance.selfmaint.serve")
        ),
        "maintenance.selfmaint.busy_s": self_s("maintenance.selfmaint"),
        "cache.serve.calls": calls("cache.serve"),
        "cache.hit_ratio": _ratio(metrics.cache_hits, calls("cache.serve")),
        "cache.patched_ratio": _ratio(
            metrics.patched_answers, metrics.cache_hits
        ),
        "cache.busy_s": self_s("cache")
        + tracer.edge_self_s("cache.serve", "maintenance.effect_on_answer"),
        "sources.execute.calls": calls("sources.execute"),
        "sources.execute.busy_s": self_s("sources.execute"),
        "sources.commit.busy_s": self_s("sources.commit"),
        "sources.round_trips": metrics.source_round_trips,
        # One maintenance process per attempt, whichever loop drives it:
        # the serial loop through build_maintenance, the parallel one
        # through the compute_unit seam.
        "views.build_maintenance.calls": counters[
            "views.compute_unit.started"
        ],
        "views.manager.busy_s": self_s(
            "views.build_maintenance", "views.compute_unit",
            "views.install_unit",
        ),
        "views.umq.receive.busy_s": self_s("views.umq.receive"),
        "views.umq.depth_mean": _ratio(sum(depths), len(depths)),
        "views.umq.depth_max": max(depths, default=0),
        "sim.run_process.calls": calls("sim.run_process"),
        "sim.engine.busy_s": self_s("sim"),
        "recovery.journal.appends": calls("recovery.journal.append"),
        "recovery.journal.append_busy_s": self_s("recovery.journal.append"),
        "recovery.checkpoint.count": calls("recovery.checkpoint"),
        "recovery.checkpoint.busy_s": self_s("recovery.checkpoint"),
        "recovery.recover.count": calls("recovery.recover"),
        "recovery.recover.busy_s": self_s("recovery.recover"),
        "recovery.bytes_per_update": _ratio(
            counters["recovery.bytes_written"], committed
        ),
        "trace.unattributed_share": _ratio(
            maintain_s - tracer.root_s, maintain_s
        ),
    }


def frontend_metrics(tracer, front_end) -> dict[str, float]:
    """The read-replay phase (its own tracer window)."""
    return {
        "frontend.build.busy_s": tracer.self_s("frontend.build"),
        "frontend.serve.busy_s": tracer.self_s("frontend.serve"),
        "frontend.versions": sum(
            len(timeline.times) - 1
            for timeline in front_end.timelines.values()
        ),
    }
