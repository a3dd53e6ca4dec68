"""Metrics collected during a simulated run.

The paper reports two headline quantities per experiment: the total
maintenance cost (y-axes of Figures 8-12, "the maintenance cost includes
the abort cost") and the *abort cost* — view-manager time spent on
maintenance attempts that a broken query later forced to be discarded.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Iterable

#: fields that are high-water marks, not additive counters: a merge
#: across schedulers takes their max (two shards running side by side
#: finish when the slowest one does; their peak widths do not add
#: because each pool dispatches against its own worker timeline)
_GAUGE_FIELDS = frozenset({"makespan", "peak_parallelism"})


@dataclass
class Metrics:
    """Accumulators for one simulated run."""

    #: view-manager busy time, by work kind (query, vs_rewrite, ...)
    busy_time: Counter = field(default_factory=Counter)
    #: total time of maintenance attempts that were aborted
    abort_cost: float = 0.0
    #: number of maintenance attempts aborted by broken queries
    aborts: int = 0
    #: number of broken queries observed (>= aborts is possible if a
    #: single attempt breaks multiple queries before aborting)
    broken_queries: int = 0
    #: number of updates whose maintenance committed to the view
    maintained_updates: int = 0
    #: maintenance units whose computation committed — the number of
    #: maintenance *rounds* paid; with group maintenance one round can
    #: cover many updates, so rounds << maintained_updates
    maintenance_rounds: int = 0
    #: messages coalesced into voluntary batches by the BatchPolicy
    grouped_messages: int = 0
    #: voluntary batches formed from safe UMQ runs
    batches_formed: int = 0
    #: number of view refresh transactions
    view_refreshes: int = 0
    #: number of pre-exec detection/correction rounds executed
    detection_rounds: int = 0
    #: number of dependency-graph builds
    graph_builds: int = 0
    #: from-scratch rebuild fallbacks inside the incremental substrate
    graph_rebuilds: int = 0
    #: incremental graph updates (node adds, head removals, remaps)
    incremental_graph_updates: int = 0
    #: footprint-cache hits (footprints served without recomputation)
    footprint_cache_hits: int = 0
    #: footprint-cache misses (footprints computed and cached)
    footprint_cache_misses: int = 0
    #: number of cycle merges performed during correction
    cycle_merges: int = 0
    #: tuples written into the view (net traffic)
    view_delta_tuples: int = 0
    #: autonomous commits rejected by their own source (stale intents)
    failed_commits: int = 0
    #: transient maintenance-query failures observed (injected faults,
    #: crash-window rejections, timeouts) — never counted as broken
    transient_failures: int = 0
    #: maintenance-query retries performed after transient failures
    retries: int = 0
    #: virtual time spent in retry backoff sleeps (included in busy time
    #: under the ``"retry_backoff"`` kind)
    backoff_time: float = 0.0
    #: queries abandoned after exhausting their retry budget
    exhausted_queries: int = 0
    #: virtual clock at quiescence under the parallel executor — the
    #: critical-path completion time across worker timelines (serial
    #: runs leave this at 0.0 and report ``maintenance_cost`` instead)
    makespan: float = 0.0
    #: per-worker busy time (index -> virtual seconds doing maintenance)
    worker_busy_time: Counter = field(default_factory=Counter)
    #: units handed to parallel workers
    dispatched_units: int = 0
    #: widest antichain actually dispatched at once
    peak_parallelism: int = 0
    #: probe queries that rode a coalesced per-source batch trip
    batched_queries: int = 0
    #: combined IN-list round trips issued on behalf of >= 2 units
    batch_round_trips: int = 0
    #: maintenance queries that actually travelled to a source (every
    #: attempt, including retries and batched combined trips)
    source_round_trips: int = 0
    #: maintenance queries answered by the snapshot cache
    cache_hits: int = 0
    #: cacheable queries the snapshot cache could not answer
    cache_misses: int = 0
    #: cache hits that required forward delta patching (stale stamp)
    patched_answers: int = 0
    #: round trips avoided locally (cache hits plus auxiliary-store
    #: hits; kept as its own counter so summaries read directly)
    saved_round_trips: int = 0
    #: cache entries dropped because a schema change committed in the
    #: version gap (broken-query semantics preserved, Thm. 1)
    cache_invalidations_sc: int = 0
    #: maintenance queries answered by the self-maintenance aux store
    aux_hits: int = 0
    #: aux-eligible queries the store could not cover
    aux_misses: int = 0
    #: aux replicas dropped by a schema change in the version gap
    #: (the same Theorem 1 rule the snapshot cache enforces)
    aux_invalidations_sc: int = 0
    #: signed delta tuples folded into aux replicas while syncing
    aux_applied_rows: int = 0
    #: data-update maintenance units whose compute phase committed
    #: (the denominator for the self-maintained fraction)
    data_unit_rounds: int = 0
    #: data-update units maintained with zero source round trips
    self_maintained_units: int = 0
    #: write-ahead journal entries appended (queue mutations + installs)
    journal_entries: int = 0
    #: bytes appended to the maintenance journal
    journal_bytes: int = 0
    #: durable checkpoints taken (journal truncated at each)
    checkpoints_taken: int = 0
    #: warehouse crash recoveries performed
    recoveries: int = 0
    #: journal entries scanned during recovery replays
    replayed_entries: int = 0
    #: update messages a shard router delivered into this scheduler's
    #: UMQ (sharded runs only; serial runs leave these at 0)
    router_delivered: int = 0
    #: update messages the shard router filtered out of this shard's
    #: stream because no registered view references the touched relation
    router_dropped: int = 0
    #: coordinator rounds this shard spent deferring an SC-bearing head
    #: unit behind the cross-shard barrier
    barrier_deferrals: int = 0
    #: barrier deadlock-avoidance releases (the earliest-SC shard was
    #: allowed to proceed although peers still held pre-SC messages)
    barrier_releases: int = 0
    #: hits of this world's compiled-plan cache (one per engine, so a
    #: sharded run counts per shard)
    plan_cache_hits: int = 0
    #: plan compilations (cache misses) of this world's plan cache
    plan_cache_recompiles: int = 0
    #: plan-cache evictions of this world's plan cache
    plan_cache_evictions: int = 0
    #: point/scan reads served by the read front end
    reads_served: int = 0
    #: summed read service + queueing latency (virtual seconds)
    read_latency_time: float = 0.0
    #: summed time reads spent queued for a free front-end server
    read_wait_time: float = 0.0
    #: reads that observed a stale version (>= 1 routed committed
    #: update was not yet visible in the served extent version)
    stale_reads: int = 0
    #: summed staleness over all reads (age of the oldest committed
    #: update invisible to the served version; virtual seconds)
    staleness_time: float = 0.0
    #: broken-query anomalies by Section 3.1 type (3 = SC vs M(DU),
    #: 4 = SC vs M(SC)); types 1-2 never abort — they are absorbed by
    #: compensation and visible in the manager's CompensationLog
    anomalies: Counter = field(default_factory=Counter)

    def charge(self, kind: str, duration: float) -> None:
        self.busy_time[kind] += duration

    @classmethod
    def merge(cls, runs: Iterable["Metrics"]) -> "Metrics":
        """Aggregate several per-scheduler runs into one view.

        Counter-valued fields (busy time, worker busy time, anomalies)
        sum per key; scalar counters sum; makespan-style gauges (see
        ``_GAUGE_FIELDS``) take the max.  This replaces the ad-hoc
        per-field aggregation ablation code used to do by hand, and
        automatically covers counters added later.

        Note the merged ``elapsed`` sums serial busy time across
        schedulers; a sharded coordinator that wants the *aggregate
        makespan* (completion time of the slowest shard) should set
        ``merged.makespan = max(run.elapsed for run in runs)``.
        """
        merged = cls()
        for run in runs:
            for spec in fields(cls):
                current = getattr(merged, spec.name)
                incoming = getattr(run, spec.name)
                if isinstance(current, Counter):
                    current.update(incoming)
                elif spec.name in _GAUGE_FIELDS:
                    setattr(merged, spec.name, max(current, incoming))
                else:
                    setattr(merged, spec.name, current + incoming)
        return merged

    @property
    def total_busy_time(self) -> float:
        return sum(self.busy_time.values())

    @property
    def maintenance_cost(self) -> float:
        """Total cost as the paper charts it (work including aborts)."""
        return self.total_busy_time

    @property
    def elapsed(self) -> float:
        """Wall-clock analogue: makespan when workers ran in parallel,
        summed busy time for a serial drain."""
        return self.makespan if self.makespan > 0.0 else self.total_busy_time

    def worker_utilization(self) -> dict[int, float]:
        """Fraction of the makespan each worker spent busy."""
        if self.makespan <= 0.0:
            return {}
        return {
            worker: round(busy / self.makespan, 4)
            for worker, busy in sorted(self.worker_busy_time.items())
        }

    def summary(self) -> dict[str, float]:
        """Every scalar field by name (floats rounded), after the
        headline cost; the ``Counter`` fields in their renderings."""
        values = {spec.name: getattr(self, spec.name) for spec in fields(self)}
        return {
            "maintenance_cost": round(self.maintenance_cost, 6),
            **{
                name: round(value, 6) if isinstance(value, float) else value
                for name, value in values.items()
                if not isinstance(value, Counter)
            },
            "worker_utilization": self.worker_utilization(),
            "anomalies": {
                kind.name: count for kind, count in self.anomalies.items()
            },
            "busy_breakdown": self.busy_breakdown(),
        }

    def busy_breakdown(self) -> dict[str, float]:
        """Busy time per work kind, rounded (query/vs/va/refresh/...)."""
        return {
            kind: round(duration, 3)
            for kind, duration in sorted(self.busy_time.items())
        }
