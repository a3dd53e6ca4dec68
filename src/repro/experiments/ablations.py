"""Ablation studies for Dyno's design choices.

* **Blind merge vs cycle-only merge** (Section 4.2's argument): the
  simplistic alternative merges the *whole* UMQ whenever a query breaks.
  The paper argues this loses intermediate view states and enlarges the
  abortable window.  We measure total cost, abort cost, and the number
  of view refreshes (a proxy for intermediate states preserved).
* **Dependency-graph construction scaling** (Section 4.1.1's O(mn)
  claim): wall-clock time of ``find_dependencies`` as the number of
  updates and schema changes grows.
"""

from __future__ import annotations

import random
import time

from ..core.dependencies import find_dependencies
from ..core.graph import DependencyGraph
from ..core.incremental import IncrementalDependencyGraph
from ..core.strategies import BLIND_MERGE, OPTIMISTIC, PESSIMISTIC
from ..faults.plan import FaultPlan
from ..frontend.reads import (
    READ_COMMITTED_VERSION,
    READ_LATEST,
    ReadWorkload,
)
from ..maintenance.grouping import BatchPolicy
from ..recovery import CrashPlan
from ..relational.delta import Delta
from ..sources.messages import (
    DataUpdate,
    DropAttribute,
    RenameRelation,
    UpdateMessage,
)
from ..views.umq import UpdateMessageQueue
from .config import WarehouseConfig
from .runner import FigureResult, ratio, run_arm
from .testbed import (
    SOURCE_NAMES,
    ShardedTestbed,
    du_stream,
    full_join_query,
    relation_schema,
    sc_stream,
    sharded_config,
)

#: the small-scale world most ablations sweep over
SMALL = WarehouseConfig(tuples_per_relation=200)
STRATEGY_ARMS = {"pess": PESSIMISTIC, "opt": OPTIMISTIC}


def run_blind_merge_ablation(
    config: WarehouseConfig = WarehouseConfig(),
    du_count: int = 200,
    sc_count: int = 10,
    sc_interval: float = 17.0,
    workload_seed: int = 7,
) -> FigureResult:
    result = FigureResult(
        figure_id="ABL-1",
        title="Cycle-only merge (Dyno) vs blind whole-queue merge",
        x_label="strategy",
        series_names=["total_cost", "abort_cost", "view_refreshes"],
    )
    stream = [
        du_stream(config, du_count, 0.0, 0.5, seed=workload_seed),
        sc_stream(sc_count, 0.0, sc_interval, seed=workload_seed + 4),
    ]
    for label, strategy in (
        ("dyno_cycle_merge", PESSIMISTIC),
        ("blind_merge", BLIND_MERGE),
    ):
        arm = run_arm(config.replace(strategy=strategy), stream)
        result.require(arm.consistent, f"{label}: failed convergence check")
        result.add(
            label,
            total_cost=arm.metrics.maintenance_cost,
            abort_cost=arm.metrics.abort_cost,
            view_refreshes=float(arm.metrics.view_refreshes),
        )
    dyno_refreshes = result.points[0].values["view_refreshes"]
    blind_refreshes = result.points[1].values["view_refreshes"]
    result.notes.append(
        "intermediate view states preserved: "
        f"Dyno {dyno_refreshes:.0f} vs blind merge {blind_refreshes:.0f}"
    )
    return result


def _synthetic_queue(
    n_updates: int, n_schema_changes: int, workload_seed: int = 5
) -> list[UpdateMessage]:
    """A UMQ snapshot with the requested DU/SC mixture."""
    rng = random.Random(workload_seed)
    messages: list[UpdateMessage] = []
    sc_positions = set(
        rng.sample(range(n_updates), min(n_schema_changes, n_updates))
    )
    for position in range(n_updates):
        relation_index = rng.randrange(6)
        schema = relation_schema(relation_index)
        source = f"src{relation_index // 2 + 1}"
        if position in sc_positions:
            payload = RenameRelation(
                schema.name, f"{schema.name}__v{position}"
            )
        else:
            delta = Delta.insertion(
                schema, [(position, "x", 1.0, position)]
            )
            payload = DataUpdate(schema.name, delta)
        messages.append(
            UpdateMessage(source, position + 1, float(position), payload)
        )
    return messages


def _du_heavy_queue(
    count: int,
    n_schema_changes: int,
    workload_seed: int = 9,
    first_seqno: int = 1,
) -> list[UpdateMessage]:
    """A DU-heavy stream whose schema changes are *non-lineage* drops
    (the workload where incremental detection shines: no rename chains,
    so arrivals never force a resolver rebuild)."""
    rng = random.Random(workload_seed)
    messages: list[UpdateMessage] = []
    sc_positions = set(
        rng.sample(range(count), min(n_schema_changes, count))
    )
    for position in range(count):
        relation_index = rng.randrange(6)
        schema = relation_schema(relation_index)
        source = f"src{relation_index // 2 + 1}"
        if position in sc_positions:
            payload = DropAttribute(schema.name, f"C{relation_index + 1}")
        else:
            delta = Delta.insertion(
                schema, [(position, "x", 1.0, position)]
            )
            payload = DataUpdate(schema.name, delta)
        seqno = first_seqno + position
        messages.append(
            UpdateMessage(source, seqno, float(seqno), payload)
        )
    return messages


def _edge_set(dependencies):
    return {
        (dep.before_index, dep.after_index, dep.kind)
        for dep in dependencies
    }


def run_incremental_detection_ablation(
    sizes: tuple[int, ...] = (50, 100, 200, 400),
    rounds: int = 40,
    sc_fraction: float = 0.05,
    workload_seed: int = 9,
) -> FigureResult:
    """Per-round detection time: from-scratch rebuild vs the
    incremental substrate, on a DU-heavy stream.

    A *round* models one scheduler step at steady queue length ``n``:
    one arrival, a detection pass, one head removal, another detection
    pass.  The from-scratch arm runs :func:`find_dependencies` over the
    whole queue each pass (what every detection round cost before the
    substrate existed); the incremental arm reads the live
    :class:`~repro.core.incremental.IncrementalDependencyGraph`.  Both
    arms consume the identical stream, and the final edge sets and
    corrected orders are verified bit-identical.
    """
    view_query = full_join_query()

    result = FigureResult(
        figure_id="ABL-5",
        title="Incremental vs from-scratch detection (per-round ms)",
        x_label="n_updates",
        series_names=["full_ms", "incremental_ms", "speedup"],
    )
    for n_updates in sizes:
        n_schema_changes = max(1, int(n_updates * sc_fraction))
        prefill = _du_heavy_queue(
            n_updates, n_schema_changes, workload_seed
        )
        arrivals = _du_heavy_queue(
            rounds,
            max(1, int(rounds * sc_fraction)),
            workload_seed + 1,
            first_seqno=n_updates + 1,
        )

        # -- from-scratch arm ------------------------------------------
        queue: list[UpdateMessage] = list(prefill)
        started = time.perf_counter()
        for message in arrivals:
            queue.append(message)
            find_dependencies(queue, view_query)
            del queue[0]
            find_dependencies(queue, view_query)
        full_ms = (time.perf_counter() - started) * 1000 / (2 * rounds)

        # -- incremental arm -------------------------------------------
        umq = UpdateMessageQueue()
        incremental = IncrementalDependencyGraph(
            umq, lambda query=view_query: (query,)
        )
        for message in prefill:
            umq.receive(message)
        started = time.perf_counter()
        for message in arrivals:
            umq.receive(message)
            incremental.dependencies()
            umq.remove_head()
            incremental.dependencies()
        incremental_ms = (
            (time.perf_counter() - started) * 1000 / (2 * rounds)
        )

        # Both arms saw the same stream: outputs must be bit-identical.
        oracle = find_dependencies(umq.messages(), view_query)
        live = incremental.dependencies()
        if _edge_set(oracle) != _edge_set(live) or (
            DependencyGraph(len(queue), oracle).legal_order()
            != incremental.detection().graph.legal_order()
        ):
            result.consistent = False
            result.notes.append(
                f"n={n_updates}: incremental output diverged from oracle"
            )

        result.add(
            n_updates,
            full_ms=full_ms,
            incremental_ms=incremental_ms,
            speedup=ratio(full_ms, incremental_ms),
        )
    result.notes.append(
        "corrected orders verified identical between both arms"
    )
    return result


def run_graph_scaling_ablation(
    sizes: tuple[tuple[int, int], ...] = (
        (100, 5),
        (200, 10),
        (400, 20),
        (800, 40),
        (1600, 80),
    ),
) -> FigureResult:
    """Wall-clock scaling of dependency-graph construction (O(mn))."""
    view_query = full_join_query()

    result = FigureResult(
        figure_id="ABL-2",
        title="Dependency graph construction scaling (wall-clock ms)",
        x_label="n_updates",
        series_names=["m_schema_changes", "edges", "build_ms"],
    )
    for n_updates, n_schema_changes in sizes:
        messages = _synthetic_queue(n_updates, n_schema_changes)
        started = time.perf_counter()
        dependencies = find_dependencies(messages, view_query)
        elapsed_ms = (time.perf_counter() - started) * 1000
        result.add(
            n_updates,
            m_schema_changes=float(n_schema_changes),
            edges=float(len(dependencies)),
            build_ms=elapsed_ms,
        )
    return result


def _stream_faults(fault_seed: int) -> FaultPlan:
    """Transients, one short crash window and link faults inside the
    first three virtual seconds — where the DU-heavy streams live."""
    return FaultPlan.random(
        fault_seed,
        sources=SOURCE_NAMES,
        horizon=3.0,
        max_crashes=1,
        crash_length=(0.2, 0.8),
    )


def run_parallel_ablation(
    config: WarehouseConfig = SMALL,
    workers: tuple[int, ...] = (1, 2, 4, 8),
    du_count: int = 40,
    fault_seed: int | None = 23,
    workload_seed: int = 17,
) -> FigureResult:
    """ABL-6: multi-worker makespan on a DU-heavy multi-source stream.

    Sweeps the parallel executor's worker count under both conflict
    strategies, with a PR 1 fault plan injected (transients, one short
    crash window, link faults).  ``workers=1`` is the honest serial
    baseline: same dispatch overheads and event machinery, zero
    concurrency.  Every arm must end with a view extent byte-identical
    to its strategy's 1-worker arm *and* to the plain serial
    :class:`~repro.core.scheduler.DynoScheduler`, and must have
    committed exactly the same (source, seqno) set — Theorem 2's
    legal-order guarantee, observed end to end.
    """
    result = FigureResult(
        figure_id="ABL-6",
        title="Parallel executor makespan vs worker count",
        x_label="workers",
        series_names=[
            "pess_makespan",
            "pess_speedup",
            "opt_makespan",
            "opt_speedup",
            "batched_queries",
            "peak_parallelism",
        ],
    )
    if fault_seed is not None:
        config = config.replace(fault_plan=_stream_faults(fault_seed))
    stream = [du_stream(config, du_count, 0.05, 0.01, seed=workload_seed)]
    rows: dict[int, dict[str, float]] = {}
    for label, strategy in STRATEGY_ARMS.items():
        base = config.replace(strategy=strategy)
        serial = run_arm(base, stream)
        result.require(
            serial.consistent, f"{label}: serial arm failed convergence"
        )
        one_worker_makespan: float | None = None
        for count in workers:
            arm = run_arm(base.replace(parallel_workers=count), stream)
            if one_worker_makespan is None:
                one_worker_makespan = arm.cost
            result.require(
                arm.same_outcome(serial),
                f"{label} workers={count}: diverged from serial oracle",
            )
            result.require(
                arm.consistent,
                f"{label} workers={count}: failed convergence check",
            )
            row = rows.setdefault(count, {})
            row[f"{label}_makespan"] = arm.cost
            row[f"{label}_speedup"] = ratio(one_worker_makespan, arm.cost)
            if label == "pess":
                row["batched_queries"] = float(arm.metrics.batched_queries)
                row["peak_parallelism"] = float(arm.metrics.peak_parallelism)
    for count in workers:
        result.add(count, **rows[count])
    result.notes.append(
        "extents and committed (source, seqno) sets verified identical "
        "to the serial scheduler in every arm"
    )
    if fault_seed is not None:
        result.notes.append(f"fault plan seed={fault_seed}")
    return result


def run_snapshot_cache_ablation(
    config: WarehouseConfig = SMALL,
    du_counts: tuple[int, ...] = (60, 120, 240),
    key_domain: int = 40,
    workload_seed: int = 5,
) -> FigureResult:
    """ABL-7: snapshot cache with local delta patching, on vs off.

    A DU-heavy hot-key stream (keys drawn from a small domain, so
    adjacent maintenance passes probe the same join keys) under both
    conflict strategies.  The cache-on arm must produce a view extent
    and a committed (source, seqno) set byte-identical to the cache-off
    arm — the cache is a pure fast path — while cutting total source
    round trips by >= 1.5x and lowering the virtual-clock total.  A
    4-worker parallel arm rides along to show hits composing with the
    executor (zero-channel-occupancy answers).
    """
    result = FigureResult(
        figure_id="ABL-7",
        title="Snapshot cache: source round trips and cost, on vs off",
        x_label="data updates",
        series_names=[
            "pess_trips_off",
            "pess_trips_on",
            "pess_trip_speedup",
            "pess_cost_speedup",
            "opt_trip_speedup",
            "opt_cost_speedup",
            "parallel_trip_speedup",
            "cache_hits",
            "patched_answers",
        ],
    )
    for du_count in du_counts:
        stream = [
            du_stream(
                config, du_count, 0.05, 0.01,
                seed=workload_seed, key_domain=key_domain,
            )
        ]
        row: dict[str, float] = {}
        for label, strategy in STRATEGY_ARMS.items():
            base = config.replace(strategy=strategy)
            off = run_arm(base, stream)
            on = run_arm(base.replace(snapshot_cache=True), stream)
            for name, arm in (("off", off), ("on", on)):
                result.require(
                    arm.consistent,
                    f"{label} cache={name} du={du_count}: "
                    "failed convergence check",
                )
            result.require(
                on.same_outcome(off),
                f"{label} du={du_count}: cache-on arm diverged from "
                "cache-off arm",
            )
            row[f"{label}_trip_speedup"] = ratio(off.trips, on.trips)
            row[f"{label}_cost_speedup"] = ratio(off.cost, on.cost)
            if label == "pess":
                row["pess_trips_off"] = float(off.trips)
                row["pess_trips_on"] = float(on.trips)
                row["cache_hits"] = float(on.metrics.cache_hits)
                row["patched_answers"] = float(on.metrics.patched_answers)
        parallel = config.replace(parallel_workers=4)
        par_off = run_arm(parallel, stream)
        par_on = run_arm(parallel.replace(snapshot_cache=True), stream)
        result.require(
            par_off.extents == par_on.extents,
            f"parallel du={du_count}: cache-on arm diverged",
        )
        row["parallel_trip_speedup"] = ratio(par_off.trips, par_on.trips)
        result.add(du_count, **row)
    result.notes.append(
        "extents and committed (source, seqno) sets verified identical "
        "between cache-on and cache-off arms in every row"
    )
    result.notes.append(
        f"hot-key stream: keys drawn from 1..{key_domain} over "
        f"{config.tuples_per_relation}-tuple relations"
    )
    return result


def _selfmaint_fraction(metrics) -> float:
    return ratio(metrics.self_maintained_units, metrics.data_unit_rounds)


def run_self_maintenance_ablation(
    config: WarehouseConfig = SMALL,
    du_counts: tuple[int, ...] = (60, 120, 240),
    key_domain: int = 40,
    workload_seed: int = 5,
) -> FigureResult:
    """ABL-10: auxiliary self-maintenance store vs cache-only vs bare.

    The same DU-heavy hot-key stream as ABL-7, three arms per strategy:

    * **off** — no local answering at all (the oracle);
    * **cache** — the PR 4 snapshot cache alone (the arm to beat);
    * **aux** — the self-maintenance store alone: per-relation
      projections of the view's needed columns, seeded free from the
      initial load and synced from committed deltas, answer every
      covered probe with **zero** source round trips.

    The aux arm must produce a view extent and a committed
    (source, seqno) set byte-identical to the off arm — replica-served
    answers are exact because projection commutes with the probe's
    select/project and is linear in deltas — while self-maintaining
    >= 80% of data-update units (zero wire trips from dispatch to
    install) and beating the cache-only arm on total virtual-clock
    cost.  A 4-worker parallel aux arm rides along (aux hits occupy no
    source channel, like cache hits).
    """
    result = FigureResult(
        figure_id="ABL-10",
        title="Self-maintenance: zero-trip fraction and cost vs cache",
        x_label="data updates",
        series_names=[
            "pess_trips_off",
            "pess_trips_aux",
            "pess_selfmaint_fraction",
            "pess_cost_speedup",
            "pess_cost_speedup_vs_cache",
            "opt_selfmaint_fraction",
            "opt_cost_speedup",
            "parallel_selfmaint_fraction",
            "aux_hits",
        ],
    )
    for du_count in du_counts:
        stream = [
            du_stream(
                config, du_count, 0.05, 0.01,
                seed=workload_seed, key_domain=key_domain,
            )
        ]
        row: dict[str, float] = {}
        for label, strategy in STRATEGY_ARMS.items():
            base = config.replace(strategy=strategy)
            off = run_arm(base, stream)
            cache = run_arm(base.replace(snapshot_cache=True), stream)
            aux = run_arm(base.replace(self_maintenance=True), stream)
            for name, arm in (("off", off), ("cache", cache), ("aux", aux)):
                result.require(
                    arm.consistent,
                    f"{label} arm={name} du={du_count}: "
                    "failed convergence check",
                )
            for name, arm in (("cache", cache), ("aux", aux)):
                result.require(
                    arm.same_outcome(off),
                    f"{label} du={du_count}: {name} arm diverged "
                    "from the off oracle",
                )
            row[f"{label}_selfmaint_fraction"] = _selfmaint_fraction(
                aux.metrics
            )
            row[f"{label}_cost_speedup"] = ratio(off.cost, aux.cost)
            if label == "pess":
                row["pess_trips_off"] = float(off.trips)
                row["pess_trips_aux"] = float(aux.trips)
                row["pess_cost_speedup_vs_cache"] = ratio(
                    cache.cost, aux.cost
                )
                row["aux_hits"] = float(aux.metrics.aux_hits)
        parallel = config.replace(parallel_workers=4)
        par_off = run_arm(parallel, stream)
        par_aux = run_arm(parallel.replace(self_maintenance=True), stream)
        result.require(
            par_aux.same_outcome(par_off),
            f"parallel du={du_count}: aux arm diverged from oracle",
        )
        row["parallel_selfmaint_fraction"] = _selfmaint_fraction(
            par_aux.metrics
        )
        result.add(du_count, **row)
    result.notes.append(
        "extents and committed (source, seqno) sets verified identical "
        "between the aux, cache-only and off arms in every row "
        "(serial both strategies, plus a 4-worker aux arm)"
    )
    result.notes.append(
        f"hot-key stream: keys drawn from 1..{key_domain} over "
        f"{config.tuples_per_relation}-tuple relations"
    )
    return result


#: the two-subview split (R3 shared) of the group-maintenance ablation
TWO_VIEW_SPANS = ((0, 3), (2, 6))
GROUP_POLICY = BatchPolicy(max_batch_size=24)


def run_group_maintenance_ablation(
    config: WarehouseConfig = SMALL.replace(spans=TWO_VIEW_SPANS),
    du_counts: tuple[int, ...] = (60, 120, 240),
    workload_seed: int = 5,
) -> FigureResult:
    """ABL-8: adaptive group maintenance, batching on vs off.

    A DU-heavy stream against the two-subview multi-view testbed (every
    update fans out to the views that join its relation).  The
    batching-on arm merges safe runs of the corrected UMQ into single
    batched maintenance rounds — one coalesced delta per touched
    relation, one probe set per source per batch — and must produce
    per-view extents and a committed (source, seqno) set byte-identical
    to the off arm, while cutting both maintenance rounds and source
    round trips by >= 2x at the heaviest stream.  A 4-worker parallel
    arm rides along to show DU-only batches staying leapfrog-eligible
    (no barrier) under the parallel executor.
    """
    result = FigureResult(
        figure_id="ABL-8",
        title="Group maintenance: rounds and round trips, on vs off",
        x_label="data updates",
        series_names=[
            "pess_rounds_off",
            "pess_rounds_on",
            "pess_round_speedup",
            "pess_trips_off",
            "pess_trips_on",
            "pess_trip_speedup",
            "pess_cost_speedup",
            "opt_round_speedup",
            "opt_trip_speedup",
            "par_round_speedup",
            "par_trip_speedup",
            "batches_formed",
            "grouped_messages",
        ],
    )

    def rounds(arm) -> int:
        return arm.metrics.maintenance_rounds

    for du_count in du_counts:
        stream = [du_stream(config, du_count, 0.05, 0.01, seed=workload_seed)]
        row: dict[str, float] = {}
        for label, strategy in STRATEGY_ARMS.items():
            base = config.replace(strategy=strategy)
            off = run_arm(base, stream)
            on = run_arm(base.replace(batch_policy=GROUP_POLICY), stream)
            for name, arm in (("off", off), ("on", on)):
                result.require(
                    arm.consistent,
                    f"{label} batching={name} du={du_count}: "
                    "failed convergence check",
                )
            result.require(
                on.same_outcome(off),
                f"{label} du={du_count}: batching-on arm diverged "
                "from batching-off arm",
            )
            row[f"{label}_round_speedup"] = ratio(rounds(off), rounds(on))
            row[f"{label}_trip_speedup"] = ratio(off.trips, on.trips)
            if label == "pess":
                row["pess_rounds_off"] = float(rounds(off))
                row["pess_rounds_on"] = float(rounds(on))
                row["pess_trips_off"] = float(off.trips)
                row["pess_trips_on"] = float(on.trips)
                row["pess_cost_speedup"] = ratio(off.cost, on.cost)
                row["batches_formed"] = float(on.metrics.batches_formed)
                row["grouped_messages"] = float(on.metrics.grouped_messages)
        parallel = config.replace(parallel_workers=4)
        par_off = run_arm(parallel, stream)
        par_on = run_arm(parallel.replace(batch_policy=GROUP_POLICY), stream)
        result.require(
            par_on.same_outcome(par_off),
            f"parallel du={du_count}: batching-on arm diverged",
        )
        row["par_round_speedup"] = ratio(rounds(par_off), rounds(par_on))
        row["par_trip_speedup"] = ratio(par_off.trips, par_on.trips)
        result.add(du_count, **row)
    result.notes.append(
        "per-view extents and committed (source, seqno) sets verified "
        "identical between batching-on and batching-off arms in every "
        "row, serial and 4-worker parallel"
    )
    result.notes.append(
        "policy: BatchPolicy(max_batch_size=24), du_only — SC-bearing "
        "units are never voluntarily batched"
    )
    return result


def run_recovery_ablation(
    config: WarehouseConfig = WarehouseConfig(tuples_per_relation=300),
    checkpoint_intervals: tuple[int, ...] = (2, 8, 16),
    du_count: int = 48,
    sc_count: int = 3,
    workload_seed: int = 5,
    crash_hit: int | None = None,
) -> FigureResult:
    """ABL-9: recovery overhead vs checkpoint interval.

    A fig12-style mixed workload (DUs at 0.5 s plus a short
    schema-change train) runs three ways per checkpoint interval:

    * **oracle** — journal off: the no-overhead, no-crash reference;
    * **journaled** — journal + checkpoints on, no crash: measures the
      write amplification (journal bytes per data update), checkpoint
      count, and the busy-time cost of both.  Durability charges busy
      time only, never the virtual clock, so this arm must land on the
      *same* virtual clock and extent as the oracle;
    * **crashed** — same, plus a crash at a fixed mid-run point
      (``serial.pre_maintain`` hit ``crash_hit``, default half the
      stream): measures replayed entries and replay cost.  The
      recovered extent and committed (source, seqno) set must equal
      the oracle's.

    Expected shape: checkpoints grow and replay shrinks as the interval
    tightens — a checkpoint bounds the journal suffix a crash replays —
    while journal traffic itself is interval-independent.
    """
    hit = crash_hit if crash_hit is not None else max(du_count // 2, 1)
    result = FigureResult(
        figure_id="ABL-9",
        title="Recovery overhead vs checkpoint interval",
        x_label="checkpoint_every",
        series_names=[
            "journal_entries",
            "journal_kb",
            "kb_per_du",
            "journal_cost",
            "checkpoints_taken",
            "checkpoint_cost",
            "recoveries",
            "replayed_entries",
            "replay_cost",
        ],
    )
    stream = [
        du_stream(config, du_count, 0.0, 0.5, seed=workload_seed),
        sc_stream(sc_count, 0.0, 25.0, seed=workload_seed + 4),
    ]

    def clock(arm) -> float:
        return arm.testbed.engine.clock.now

    oracle = run_arm(config, stream)
    result.require(oracle.consistent, "oracle arm failed convergence check")
    for interval in checkpoint_intervals:
        durable = config.replace(journal=True, checkpoint_every=interval)
        journaled = run_arm(durable, stream)
        result.require(
            journaled.consistent and journaled.extents == oracle.extents,
            f"ckpt={interval}: journaled arm diverged from oracle",
        )
        result.require(
            clock(journaled) == clock(oracle),
            f"ckpt={interval}: durability advanced the virtual "
            "clock (must charge busy time only)",
        )
        crashed = run_arm(
            durable.replace(crash_plan=CrashPlan("serial.pre_maintain", hit)),
            stream,
        )
        result.require(
            crashed.consistent and crashed.same_outcome(oracle),
            f"ckpt={interval}: crashed arm diverged from oracle",
        )
        result.require(
            crashed.metrics.recoveries >= 1,
            f"ckpt={interval}: crash never fired",
        )
        metrics = journaled.metrics
        busy = metrics.busy_time
        result.add(
            interval,
            journal_entries=float(metrics.journal_entries),
            journal_kb=metrics.journal_bytes / 1024.0,
            kb_per_du=metrics.journal_bytes / 1024.0 / du_count,
            journal_cost=busy.get("journal", 0.0),
            checkpoints_taken=float(metrics.checkpoints_taken),
            checkpoint_cost=busy.get("checkpoint", 0.0),
            recoveries=float(crashed.metrics.recoveries),
            replayed_entries=float(crashed.metrics.replayed_entries),
            replay_cost=crashed.metrics.busy_time.get("replay", 0.0),
        )
    result.notes.append(
        "journaled and crashed extents (and committed update sets) "
        "verified identical to the journal-off oracle in every row; "
        f"crash plan: serial.pre_maintain hit {hit}"
    )
    return result


def run_sharding_ablation(
    config: WarehouseConfig = sharded_config(tuples_per_relation=160),
    shard_counts: tuple[int, ...] = (1, 2, 4),
    du_count: int = 160,
    workload_seed: int = 5,
    reads: int = 1_000_000,
    crash_seed: int = 1,
    fault_seed: int = 9,
) -> FigureResult:
    """ABL-11: sharded multi-scheduler warehouse + read front end.

    The four-subview workload of ``SHARDED_SPANS`` (every relation in at
    most two views) under a DU-heavy stream, swept over shard counts.
    Each shard owns its own scheduler/UMQ/substrate world; the footprint
    router delivers each update only to shards whose views reference the
    touched relation; the aggregate makespan is the completion time of
    the slowest shard.  Acceptance bar: >= 2x aggregate-makespan
    improvement at 4 shards, with per-view extents and committed
    (source, seqno) sets byte-identical to the 1-shard oracle — also
    under the optimistic strategy, a seeded fault plan, a seeded crash
    plan (per-shard journals + recovery), a 2-worker parallel executor,
    and an SC-bearing stream exercising the cross-shard barrier.

    On top, ``reads`` point/scan reads (split over the two consistency
    levels) are replayed per shard count against the recorded install
    timelines, reporting p50/p99 latency and staleness.

    ``config.shard_processes=N`` executes the swept multi-shard arms
    across N OS worker processes (:mod:`repro.core.runtime`); results
    are bit-identical, so every oracle comparison still holds — ABL-13
    owns the wall-clock speedup story.
    """
    result = FigureResult(
        figure_id="ABL-11",
        title="Sharded warehouse: aggregate makespan + read latency",
        x_label="shards",
        series_names=[
            "pess_makespan_speedup",
            "opt_makespan_speedup",
            "pess_makespan",
            "pess_busy_time",
            "router_delivered",
            "router_dropped",
            "barrier_deferrals",
            "reads_served",
            "read_p50_latest",
            "read_p99_latest",
            "read_p99_committed",
            "staleness_latest",
            "staleness_committed",
            "stale_fraction_latest",
        ],
    )
    du = du_stream(config, du_count, 0.05, 0.05, seed=workload_seed)
    inline = config.replace(shard_processes=0)

    def arm(base: WarehouseConfig, shard_count: int, *streams):
        return run_arm(
            base.replace(shards=shard_count), [du, *streams], ShardedTestbed
        )

    oracles = {
        label: arm(inline.replace(strategy=strategy), 1)
        for label, strategy in STRATEGY_ARMS.items()
    }
    for shards in shard_counts:
        row: dict[str, float] = {}
        swept = {}
        for label, strategy in STRATEGY_ARMS.items():
            swept[label] = this = arm(
                config.replace(strategy=strategy), shards
            )
            result.require(
                this.consistent,
                f"{label} shards={shards}: failed convergence check",
            )
            result.require(
                this.same_outcome(oracles[label]),
                f"{label} shards={shards}: diverged from 1-shard oracle",
            )
            metrics = this.metrics
            row[f"{label}_makespan_speedup"] = ratio(
                oracles[label].metrics.makespan, metrics.makespan
            )
            if label == "pess":
                row["pess_makespan"] = metrics.makespan
                row["pess_busy_time"] = metrics.total_busy_time
                row["router_delivered"] = float(metrics.router_delivered)
                row["router_dropped"] = float(metrics.router_dropped)
                row["barrier_deferrals"] = float(metrics.barrier_deferrals)
        # Read front end: half the budget per consistency level against
        # the pessimistic arm's install timelines.
        front_end = swept["pess"].testbed.read_front_end()
        per_level = max(1, reads // 2)
        latest = front_end.serve(
            ReadWorkload(count=per_level, seed=17), READ_LATEST
        )
        committed_level = front_end.serve(
            ReadWorkload(count=per_level, seed=17), READ_COMMITTED_VERSION
        )
        row["reads_served"] = float(latest.count + committed_level.count)
        row["read_p50_latest"] = latest.p50_latency
        row["read_p99_latest"] = latest.p99_latency
        row["read_p99_committed"] = committed_level.p99_latency
        row["staleness_latest"] = latest.mean_staleness
        row["staleness_committed"] = committed_level.mean_staleness
        row["stale_fraction_latest"] = latest.stale_fraction
        result.add(shards, **row)
    # Equivalence cross-product at the widest shard count: every knob
    # that could break determinism runs against a matching 1-shard
    # oracle and must reproduce its extents + committed sets exactly.
    widest = max(shard_counts)
    sc = sc_stream(3, 1.0, 9.0, seed=workload_seed + 4)
    faults = FaultPlan.random(fault_seed, SOURCE_NAMES)
    hardened = (
        ("faults", {"fault_plan": faults}, ()),
        ("crash", {"crash_plan": CrashPlan.random(crash_seed)}, ()),
        ("workers", {"parallel_workers": 2}, ()),
        ("sc_barrier", {}, (sc,)),
    )
    for name, knobs, streams in hardened:
        base = inline.replace(**knobs)
        oracle = arm(base, 1, *streams)
        wide = arm(base, widest, *streams)
        result.require(
            oracle.consistent and wide.consistent,
            f"{name}: failed convergence check",
        )
        result.require(
            wide.same_outcome(oracle),
            f"{name}: {widest}-shard arm diverged from oracle",
        )
        if name == "crash":
            result.require(
                wide.metrics.recoveries >= 1, "crash: plan never fired"
            )
        if name == "sc_barrier" and wide.metrics.barrier_deferrals < 1:
            result.notes.append("sc_barrier: barrier never deferred")
    result.notes.append(
        "per-view extents and committed (source, seqno) sets verified "
        "byte-identical to the 1-shard oracle at every shard count, and "
        "again at the widest count under optimistic strategy, fault "
        "plan, crash plan (per-shard journals), 2-worker parallel "
        "executor, and an SC stream crossing the shard barrier"
    )
    result.notes.append(
        "reads are replayed post hoc against recorded install "
        "timelines: read-latest serves each shard's freshest version, "
        "read-committed-version the newest version within the global "
        "min-across-shards commit watermark"
    )
    return result
