"""The ablation runners (ABL-1, 3, 6..11) and, beside each, its
acceptance bar: ``run_*`` measures, ``check_*(result)`` asserts the
claimed shape.  :mod:`.table` states which sweep each runs at which
scale; the runners' own defaults are what no scale varies.
"""

from __future__ import annotations

from types import SimpleNamespace

from ..core.strategies import BLIND_MERGE, OPTIMISTIC, PESSIMISTIC
from ..faults.plan import FaultPlan
from ..frontend.reads import (
    READ_COMMITTED_VERSION,
    READ_LATEST,
    ReadWorkload,
)
from ..maintenance.grouping import BatchPolicy
from ..recovery import CrashPlan
from .config import WarehouseConfig
from .runner import (
    FigureResult,
    arm_sweep,
    ratio,
    read_columns,
    require_identical,
    run_arm,
)
from .testbed import (
    SOURCE_NAMES,
    ShardedTestbed,
    du_stream,
    sc_stream,
)

STRATEGY_ARMS = {"pess": PESSIMISTIC, "opt": OPTIMISTIC}
PARALLEL_FAULT_SEED = 23


def run_blind_merge_ablation(
    config: WarehouseConfig,
    du_count: int,
    sc_count: int = 10,
    sc_interval: float = 17.0,
    workload_seed: int = 7,
) -> FigureResult:
    result = FigureResult(
        figure_id="ABL-1",
        title="Cycle-only merge (Dyno) vs blind whole-queue merge",
        x_label="strategy",
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
    dyno, blind = result.series("view_refreshes")
    result.notes.append(
        "intermediate view states preserved: "
        f"Dyno {dyno:.0f} vs blind merge {blind:.0f}"
    )
    return result


def check_blind_merge(result: FigureResult) -> None:
    """Section 4.2: Dyno preserves strictly more intermediate view
    states (more, smaller refreshes) than merging the whole queue."""
    dyno, blind = result.series("view_refreshes")
    assert dyno > blind


def run_starvation_study(
    config: WarehouseConfig,
    intervals: tuple[float, ...] = (1.0, 5.0, 15.0, 23.0, 40.0),
    stream_length: int = 12,
    du_count: int = 60,
    workload_seed: int = 13,
) -> FigureResult:
    """ABL-3: termination under an adversarial stream (Section 4.4).

    Dyno could in principle loop forever if a continuous stream of
    schema changes kept breaking the ongoing maintenance; the paper
    argues aborts only pile up when they arrive at intervals close to
    one maintenance time.  Fires view-conflicting renames at a fixed
    interval and measures whether the view still converges once the
    stream stops and how many updates were maintained meanwhile."""
    result = arm_sweep(
        "ABL-3",
        "Progress under an adversarial schema-change stream",
        "sc_interval_s",
        intervals,
        lambda interval: [
            du_stream(config, du_count, 0.0, 0.5, seed=workload_seed),
            sc_stream(
                stream_length,
                0.0,
                interval,
                seed=workload_seed + 1,
                drop_first=False,
            ),
        ],
        {"dyno": (config, {})},
        (
            ("total_cost", "dyno", "off.metrics.maintenance_cost"),
            ("aborts", "dyno", "off.metrics.aborts"),
            (
                "forced_merges",
                "dyno",
                "off.testbed.scheduler.stats.forced_merges",
            ),
            ("maintained", "dyno", "off.metrics.maintained_updates"),
        ),
    )
    result.notes.append(
        "every run quiesced and converged: the infinite-wait scenario of "
        "Section 4.4 did not materialize at any interval"
    )
    return result


def check_starvation(result: FigureResult) -> None:
    """Progress at every interval: no stream starves maintenance."""
    for point in result.points:
        assert point.values["maintained"] > 0


def _du_heavy_stream(config: WarehouseConfig, workload_seed: int, **stream):
    """``du_count -> workload``: the DU-only multi-source burst ABL-6,
    7, 8 and 10 maintain (``stream``: ``key_domain`` for hot keys)."""
    return lambda du_count: [
        du_stream(config, du_count, 0.05, 0.01, seed=workload_seed, **stream)
    ]


def run_parallel_ablation(
    config: WarehouseConfig,
    du_count: int,
    workers: tuple[int, ...] = (1, 2, 4, 8),
    workload_seed: int = 17,
) -> FigureResult:
    """ABL-6: multi-worker makespan on a DU-heavy multi-source stream
    with a fault plan injected, under both conflict strategies.

    ``workers`` must start at 1: the 1-worker arm is the serial
    baseline of every speedup column (same dispatch overheads, zero
    concurrency).  Every arm must be identical to the plain serial
    scheduler: Theorem 2's legal-order guarantee, end to end."""
    if not workers or workers[0] != 1:
        raise ValueError(
            "workers must start with the 1-worker arm the speedup "
            f"columns are relative to, got {workers!r}"
        )
    result = FigureResult(
        figure_id="ABL-6",
        title="Parallel executor makespan vs worker count",
        x_label="workers",
    )
    config = config.replace(
        fault_plan=FaultPlan.random(
            PARALLEL_FAULT_SEED,
            sources=SOURCE_NAMES,
            horizon=3.0,
            max_crashes=1,
            crash_length=(0.2, 0.8),
        )
    )
    stream = _du_heavy_stream(config, workload_seed)(du_count)
    arms = {}
    for label, strategy in STRATEGY_ARMS.items():
        base = config.replace(strategy=strategy)
        serial = run_arm(base, stream)
        result.require(
            serial.consistent, f"{label} serial: failed convergence check"
        )
        for count in workers:
            arm = run_arm(base.replace(parallel_workers=count), stream)
            require_identical(result, f"{label} workers={count}", arm, serial)
            arms[label, count] = arm
    for count in workers:
        pess, opt = arms["pess", count], arms["opt", count]
        result.add(
            count,
            pess_makespan=pess.cost,
            pess_speedup=ratio(arms["pess", 1].cost, pess.cost),
            opt_makespan=opt.cost,
            opt_speedup=ratio(arms["opt", 1].cost, opt.cost),
            batched_queries=float(pess.metrics.batched_queries),
            peak_parallelism=float(pess.metrics.peak_parallelism),
        )
    result.notes.append(
        "extents and committed (source, seqno) sets verified identical "
        "to the serial scheduler in every arm"
    )
    result.notes.append(f"fault plan seed={PARALLEL_FAULT_SEED}")
    return result


def check_parallel(result: FigureResult) -> None:
    """Four workers buy >= 2x over the 1-worker arm, eight never hurt,
    and channel contention actually coalesced probes at four."""
    by_workers = {point.x: point.values for point in result.points}
    assert by_workers[1]["pess_speedup"] == 1.0
    for label in STRATEGY_ARMS:
        assert by_workers[4][f"{label}_speedup"] >= 2.0
        assert (
            by_workers[8][f"{label}_makespan"]
            <= by_workers[4][f"{label}_makespan"] * 1.05
        )
    assert by_workers[4]["batched_queries"] > 0


# ----------------------------------------------------------------------
# ABL-7 / ABL-8 / ABL-10: one mechanism off vs on, as rows over
# ``arm_sweep``
# ----------------------------------------------------------------------


def _mechanism_groups(
    config: WarehouseConfig, variants: dict, parallel_variants: dict
) -> dict:
    """Both strategies serially, plus a 4-worker parallel group riding
    along to show the mechanism composing with the executor."""
    return {
        "pess": (config.replace(strategy=PESSIMISTIC), variants),
        "opt": (config.replace(strategy=OPTIMISTIC), variants),
        "parallel": (config.replace(parallel_workers=4), parallel_variants),
    }


#: quotient readings: how much the ``on`` arm saved over ``off``
TRIPS_SAVED = ("off.trips", "on.trips")
COST_SAVED = ("off.cost", "on.cost")


def _hot_key_note(config: WarehouseConfig, key_domain: int) -> str:
    return (
        f"hot-key stream: keys drawn from 1..{key_domain} over "
        f"{config.tuples_per_relation}-tuple relations"
    )


def run_snapshot_cache_ablation(
    config: WarehouseConfig,
    du_counts: tuple[int, ...],
    key_domain: int = 40,
    workload_seed: int = 5,
) -> FigureResult:
    """ABL-7: snapshot cache with local delta patching, on vs off, on
    a DU-heavy hot-key stream (keys from a small domain, so adjacent
    maintenance passes probe the same join keys).  The cache is a pure
    fast path: every cache-on arm must be identical to its cache-off
    arm, the 4-worker pair included."""
    cache_on = {"on": {"snapshot_cache": True}}
    result = arm_sweep(
        "ABL-7",
        "Snapshot cache: source round trips and cost, on vs off",
        "data updates",
        du_counts,
        _du_heavy_stream(config, workload_seed, key_domain=key_domain),
        _mechanism_groups(config, cache_on, cache_on),
        (
            ("pess_trips_off", "pess", "off.trips"),
            ("pess_trips_on", "pess", "on.trips"),
            ("pess_trip_speedup", "pess", TRIPS_SAVED),
            ("pess_cost_speedup", "pess", COST_SAVED),
            ("opt_trip_speedup", "opt", TRIPS_SAVED),
            ("opt_cost_speedup", "opt", COST_SAVED),
            ("parallel_trip_speedup", "parallel", TRIPS_SAVED),
            ("cache_hits", "pess", "on.metrics.cache_hits"),
            ("patched_answers", "pess", "on.metrics.patched_answers"),
        ),
    )
    result.notes.append(
        "extents and committed (source, seqno) sets verified identical "
        "between cache-on and cache-off arms in every row"
    )
    result.notes.append(_hot_key_note(config, key_domain))
    return result


def check_snapshot_cache(result: FigureResult) -> None:
    """At the DU-heavy end the cache buys >= 1.5x fewer round trips in
    every group and a lower virtual-clock total; the fast path fired
    and stale entries were patched forward rather than re-fetched."""
    heaviest = result.points[-1].values
    for label in ("pess", "opt", "parallel"):
        assert heaviest[f"{label}_trip_speedup"] >= 1.5
    assert heaviest["pess_cost_speedup"] > 1.0
    assert heaviest["opt_cost_speedup"] > 1.0
    assert heaviest["cache_hits"] > 0
    assert heaviest["patched_answers"] > 0


def run_self_maintenance_ablation(
    config: WarehouseConfig,
    du_counts: tuple[int, ...],
    key_domain: int = 40,
    workload_seed: int = 5,
) -> FigureResult:
    """ABL-10: auxiliary self-maintenance store vs cache-only vs bare.

    The ABL-7 stream, three arms per strategy: **off** (no local
    answering, the oracle), **cache** (the snapshot cache alone, the
    arm to beat) and **aux** (the store alone, answering every covered
    probe with zero round trips).  Both must be identical to off."""
    aux = {"aux": {"self_maintenance": True}}
    aux_cost_saved = ("off.cost", "aux.cost")
    selfmaint_fraction = (
        "aux.metrics.self_maintained_units",
        "aux.metrics.data_unit_rounds",
    )
    result = arm_sweep(
        "ABL-10",
        "Self-maintenance: zero-trip fraction and cost vs cache",
        "data updates",
        du_counts,
        _du_heavy_stream(config, workload_seed, key_domain=key_domain),
        _mechanism_groups(
            config, {"cache": {"snapshot_cache": True}, **aux}, aux
        ),
        (
            ("pess_trips_off", "pess", "off.trips"),
            ("pess_trips_aux", "pess", "aux.trips"),
            ("pess_selfmaint_fraction", "pess", selfmaint_fraction),
            ("pess_cost_speedup", "pess", aux_cost_saved),
            (
                "pess_cost_speedup_vs_cache",
                "pess",
                ("cache.cost", "aux.cost"),
            ),
            ("opt_selfmaint_fraction", "opt", selfmaint_fraction),
            ("opt_cost_speedup", "opt", aux_cost_saved),
            ("parallel_selfmaint_fraction", "parallel", selfmaint_fraction),
            ("aux_hits", "pess", "aux.metrics.aux_hits"),
        ),
    )
    result.notes.append(
        "extents and committed (source, seqno) sets verified identical "
        "between the aux, cache-only and off arms in every row "
        "(serial both strategies, plus a 4-worker aux arm)"
    )
    result.notes.append(_hot_key_note(config, key_domain))
    return result


def check_self_maintenance(result: FigureResult) -> None:
    """At the heaviest end >= 80% of DU units are maintained with zero
    source round trips in every group, zero-trip answering beats both
    the bare and the cache-only configuration on virtual-clock cost,
    and the store actually answered."""
    heaviest = result.points[-1].values
    for label in ("pess", "opt", "parallel"):
        assert heaviest[f"{label}_selfmaint_fraction"] >= 0.8
    assert heaviest["pess_cost_speedup"] > 1.0
    assert heaviest["opt_cost_speedup"] > 1.0
    assert heaviest["pess_cost_speedup_vs_cache"] > 1.0
    assert heaviest["aux_hits"] > 0


#: the two-subview split (R3 shared) of the group-maintenance ablation
TWO_VIEW_SPANS = ((0, 3), (2, 6))
GROUP_POLICY = BatchPolicy(max_batch_size=24)


def run_group_maintenance_ablation(
    config: WarehouseConfig,
    du_counts: tuple[int, ...],
    workload_seed: int = 5,
) -> FigureResult:
    """ABL-8: adaptive group maintenance, batching on vs off, on a
    DU-heavy stream against ``config``'s world split into the two
    subviews of ``TWO_VIEW_SPANS``.  The batching-on arm merges safe
    runs of the corrected UMQ into single batched rounds and must be
    identical to the off arm, the 4-worker pair included."""
    config = config.replace(spans=TWO_VIEW_SPANS)
    batching = {"on": {"batch_policy": GROUP_POLICY}}
    rounds_saved = (
        "off.metrics.maintenance_rounds",
        "on.metrics.maintenance_rounds",
    )
    result = arm_sweep(
        "ABL-8",
        "Group maintenance: rounds and round trips, on vs off",
        "data updates",
        du_counts,
        _du_heavy_stream(config, workload_seed),
        _mechanism_groups(config, batching, batching),
        (
            ("pess_rounds_off", "pess", rounds_saved[0]),
            ("pess_rounds_on", "pess", rounds_saved[1]),
            ("pess_round_speedup", "pess", rounds_saved),
            ("pess_trips_off", "pess", "off.trips"),
            ("pess_trips_on", "pess", "on.trips"),
            ("pess_trip_speedup", "pess", TRIPS_SAVED),
            ("pess_cost_speedup", "pess", COST_SAVED),
            ("opt_round_speedup", "opt", rounds_saved),
            ("opt_trip_speedup", "opt", TRIPS_SAVED),
            ("par_round_speedup", "parallel", rounds_saved),
            ("par_trip_speedup", "parallel", TRIPS_SAVED),
            ("batches_formed", "pess", "on.metrics.batches_formed"),
            ("grouped_messages", "pess", "on.metrics.grouped_messages"),
        ),
    )
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


def check_group_maintenance(result: FigureResult) -> None:
    """At the heaviest stream batching buys >= 2x fewer maintenance
    rounds and source round trips in every group, the saved rounds show
    up on the virtual clock, and grouping actually fired."""
    heaviest = result.points[-1].values
    for label in ("pess", "opt", "par"):
        assert heaviest[f"{label}_round_speedup"] >= 2.0
        assert heaviest[f"{label}_trip_speedup"] >= 2.0
    assert heaviest["pess_cost_speedup"] > 1.0
    assert heaviest["batches_formed"] > 0
    assert heaviest["grouped_messages"] > 0


def run_recovery_ablation(
    config: WarehouseConfig,
    du_count: int,
    checkpoint_intervals: tuple[int, ...] = (2, 8, 16),
    sc_count: int = 3,
    workload_seed: int = 5,
) -> FigureResult:
    """ABL-9: recovery overhead vs checkpoint interval, on a
    fig12-style mixed workload.  Against one journal-off **oracle**,
    per interval: **journaled** (journal + checkpoints: write
    amplification; durability charges busy time only, so the virtual
    clock must equal the oracle's) and **crashed** (the same plus a
    crash at ``serial.pre_maintain`` half-way: replay cost)."""
    hit = max(du_count // 2, 1)
    result = FigureResult(
        figure_id="ABL-9",
        title="Recovery overhead vs checkpoint interval",
        x_label="checkpoint_every",
    )
    stream = [
        du_stream(config, du_count, 0.0, 0.5, seed=workload_seed),
        sc_stream(sc_count, 0.0, 25.0, seed=workload_seed + 4),
    ]
    oracle = run_arm(config, stream)
    result.require(oracle.consistent, "oracle: failed convergence check")
    crash = CrashPlan("serial.pre_maintain", hit)
    for interval in checkpoint_intervals:
        durable = config.replace(journal=True, checkpoint_every=interval)
        journaled = run_arm(durable, stream)
        crashed = run_arm(durable.replace(crash_plan=crash), stream)
        for label, arm in (("journaled", journaled), ("crashed", crashed)):
            require_identical(
                result, f"{label} ckpt={interval}", arm, oracle
            )
        result.require(
            journaled.testbed.engine.clock.now
            == oracle.testbed.engine.clock.now,
            f"ckpt={interval}: durability advanced the virtual "
            "clock (must charge busy time only)",
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


def check_recovery(result: FigureResult) -> None:
    """The overhead shape: journal traffic is interval-independent,
    checkpoints (and their cost) grow as the interval tightens, a tight
    interval bounds the journal suffix a crash replays — and the
    planned crash fired and was recovered in every row."""
    rows = {point.x: point.values for point in result.points}
    tightest, loosest = rows[min(rows)], rows[max(rows)]
    assert len({row["journal_entries"] for row in rows.values()}) == 1
    assert tightest["checkpoints_taken"] > loosest["checkpoints_taken"]
    assert tightest["checkpoint_cost"] > loosest["checkpoint_cost"]
    assert tightest["replayed_entries"] <= loosest["replayed_entries"]
    for row in rows.values():
        assert row["recoveries"] >= 1.0
        assert row["journal_kb"] > 0.0


def hardened_arms(fault_seed: int, crash_seed: int) -> tuple:
    """The ``(label, config delta, extra streams)`` identity matrix
    ABL-11 and ABL-13 share: every knob that could break determinism,
    each run against an oracle under the same delta."""
    faults = FaultPlan.random(fault_seed, SOURCE_NAMES)
    return (
        ("fault-plan", {"fault_plan": faults}, ()),
        ("crash-plan", {"crash_plan": CrashPlan.random(crash_seed)}, ()),
        ("workers=2", {"parallel_workers": 2}, ()),
    )


#: point/scan reads replayed per shard count by ABL-11 (and its bar)
READS = 1_000_000


def run_sharding_ablation(
    config: WarehouseConfig,
    du_count: int,
    shard_counts: tuple[int, ...] = (1, 2, 4),
    workload_seed: int = 5,
) -> FigureResult:
    """ABL-11: sharded multi-scheduler warehouse + read front end.

    ``config``'s subviews under a DU-heavy stream, swept over shard
    counts.  Every arm must be identical to the 1-shard oracle — at the
    widest count also under the :func:`hardened_arms` matrix and an SC
    stream crossing the shard barrier.  ``READS`` point/scan reads are
    replayed per shard count against the recorded install timelines.
    ``config.shard_processes=N`` executes the swept arms in N OS worker
    processes, bit-identically."""
    result = FigureResult(
        figure_id="ABL-11",
        title="Sharded warehouse: aggregate makespan + read latency",
        x_label="shards",
    )
    makespan_saved = ("off.metrics.makespan", "on.metrics.makespan")
    columns = (
        ("pess_makespan_speedup", "pess", makespan_saved),
        ("opt_makespan_speedup", "opt", makespan_saved),
        ("pess_makespan", "pess", "on.metrics.makespan"),
        ("pess_busy_time", "pess", "on.metrics.total_busy_time"),
        ("router_delivered", "pess", "on.metrics.router_delivered"),
        ("router_dropped", "pess", "on.metrics.router_dropped"),
        ("barrier_deferrals", "pess", "on.metrics.barrier_deferrals"),
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
        arms = {}
        for label, strategy in STRATEGY_ARMS.items():
            this = arm(config.replace(strategy=strategy), shards)
            require_identical(
                result, f"{label} shards={shards}", this, oracles[label]
            )
            arms[label] = SimpleNamespace(off=oracles[label], on=this)
        # Read front end: half the budget per consistency level against
        # the pessimistic arm's install timelines.
        front_end = arms["pess"].on.testbed.read_front_end()
        reads = ReadWorkload(count=READS // 2, seed=17)
        latest = front_end.serve(reads, READ_LATEST)
        committed = front_end.serve(reads, READ_COMMITTED_VERSION)
        result.add(
            shards,
            **read_columns(arms, columns),
            reads_served=float(latest.count + committed.count),
            read_p50_latest=latest.p50_latency,
            read_p99_latest=latest.p99_latency,
            read_p99_committed=committed.p99_latency,
            staleness_latest=latest.mean_staleness,
            staleness_committed=committed.mean_staleness,
            stale_fraction_latest=latest.stale_fraction,
        )
    # The identity matrix at the widest shard count, each row against a
    # matching 1-shard oracle (the optimistic row is the sweep's own).
    widest = max(shard_counts)
    sc = sc_stream(3, 1.0, 9.0, seed=workload_seed + 4)
    for label, delta, streams in (
        *hardened_arms(fault_seed=9, crash_seed=1),
        ("sc-barrier", {}, (sc,)),
    ):
        base = inline.replace(**delta)
        oracle = arm(base, 1, *streams)
        wide = arm(base, widest, *streams)
        result.require(
            oracle.consistent, f"{label}: oracle failed convergence check"
        )
        require_identical(
            result, f"{label} shards={widest}", wide, oracle
        )
        if "crash_plan" in delta:
            result.require(
                wide.metrics.recoveries >= 1, f"{label}: plan never fired"
            )
        if streams and wide.metrics.barrier_deferrals < 1:
            result.notes.append(f"{label}: barrier never deferred")
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


def check_sharding(result: FigureResult) -> None:
    """>= 2x aggregate-makespan speedup at the widest shard count under
    both strategies, the full read budget served, the router actually
    filtered, and no maintenance work lost or duplicated: summed serial
    busy time within 1% of the 1-shard arm's."""
    single, widest = result.points[0].values, result.points[-1].values
    assert widest["pess_makespan_speedup"] >= 2.0
    assert widest["opt_makespan_speedup"] >= 2.0
    assert widest["reads_served"] >= READS
    assert widest["router_dropped"] > 0
    assert (
        abs(widest["pess_busy_time"] - single["pess_busy_time"])
        <= 0.01 * single["pess_busy_time"]
    )
