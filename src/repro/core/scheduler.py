"""Dyno: the dynamic reordering scheduler (Figures 6 and 7).

The scheduler is the paper's main loop:

1. (pessimistic only) atomically test-and-clear the
   ``NewSchemaChangeFlag``; if set, run pre-exec detection and
   correction over the whole UMQ — the O(1) fast path means DU-only
   streams pay essentially nothing (Figure 8);
2. maintain the head unit by driving its maintenance process against
   the simulation engine;
3. if the maintenance finished, commit: remove the head and continue;
4. if a query broke mid-flight (in-exec detection — the engine throws
   :class:`~repro.sources.errors.BrokenQueryError` into the process),
   abort: discard the partial work (counted as *abort cost*), apply the
   strategy's broken-query policy (correct / merge-all / skip) and loop.

The loop also plays the UMQ-manager role of Figure 7 implicitly: the
wrappers enqueue messages and raise the flag as autonomous commits fire
inside the engine's time windows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..relational.plan import PLAN_CACHE
from ..sim import trace as trace_kinds
from ..sim.effects import Delay
from ..sim.engine import SimEngine
from ..sources.errors import (
    BrokenQueryError,
    SourceError,
    SourceUnavailableError,
    TransientSourceError,
)
from ..maintenance.grouping import (
    BatchPolicy,
    find_safe_runs,
    merge_runs,
)
from ..sources.messages import UpdateMessage
from ..views.manager import ViewManager
from ..views.umq import MaintenanceUnit
from .anomalies import AnomalyType
from .correction import CorrectionResult, correct, merge_all
from .incremental import IncrementalDependencyGraph
from .strategies import PESSIMISTIC, BrokenQueryPolicy, Strategy

#: fallback quarantine length when neither the failure nor the retry
#: policy carries a recovery hint
DEFAULT_QUARANTINE_PROBE = 2.0


def closure(
    seeds: set[int], pairs: set[tuple[int, int]], forward: bool = True
) -> set[int]:
    """``seeds`` and every unit reachable from them over the
    ``(before, after)`` unit pairs: successors when ``forward``,
    predecessors otherwise."""
    reached = set(seeds)
    while True:
        grown = {
            (after if forward else before)
            for before, after in pairs
            if (before if forward else after) in reached
        }
        if grown <= reached:
            return reached
        reached |= grown


@dataclass
class SchedulerStats:
    """Dyno-level counters complementing the engine metrics."""

    iterations: int = 0
    corrections: int = 0
    forced_merges: int = 0
    skipped_updates: int = 0
    # -- fault handling (retries and backoff are counted on Metrics) --
    #: transient failures that reached the abort handler and were
    #: classified as outages instead of broken-query flags — each one a
    #: spurious abort/reorder avoided
    false_flags_avoided: int = 0
    #: broken-query flags confirmed genuine by classification
    genuine_broken_flags: int = 0
    #: (virtual time, source, until) quarantine entries
    quarantine_events: list[tuple[float, str, float]] = field(
        default_factory=list
    )
    #: quarantined sources brought back into service
    resumed_sources: int = 0
    #: in-flight/parked units restarted because a unit they had treated
    #: as serialized-before requeued (parallel executor only)
    tainted_restarts: int = 0
    #: maintenance units newly parked behind the active queue because
    #: they depend on a quarantined source (each unit counted once per
    #: stay in the deferred set, not once per deferral round)
    deferred_units: int = 0


class DynoScheduler:
    """Drives a :class:`ViewManager` under one strategy."""

    def __init__(
        self,
        manager: ViewManager,
        strategy: Strategy = PESSIMISTIC,
        max_iterations: int = 1_000_000,
        defer_du_interval: float | None = None,
        batch_policy: BatchPolicy | None = None,
    ) -> None:
        """``defer_du_interval`` enables *deferred* data-update
        maintenance (Colby et al. [5] in the paper's related work): pure
        data updates accumulate and are maintained as one coalesced
        batch every ``interval`` virtual seconds — fewer, bigger view
        refreshes, trading staleness for refresh cost.  Schema changes
        are never deferred: the moment one is queued, ordinary Dyno
        processing takes over.

        ``batch_policy`` arms adaptive group maintenance
        (:mod:`repro.maintenance.grouping`): before picking the head,
        maximal safe runs of the corrected UMQ are coalesced into
        voluntary batch units, so a run of compatible updates pays one
        maintenance round instead of one per message.
        """
        self.manager = manager
        self.strategy = strategy
        # Strict compensation for Dyno-corrected runs: under a corrected
        # order a probe answer can never go negative, so clamping would
        # hide a real ordering bug.  Baselines (skip / merge-all) keep
        # the historical clamp — broken ordering is their design.
        if strategy.on_broken_query is BrokenQueryPolicy.CORRECT:
            for inner in manager.view_managers():
                inner.compensation_log.strict = True
        self.max_iterations = max_iterations
        self.defer_du_interval = defer_du_interval
        self.batch_policy = batch_policy
        #: crash-recovery harness (armed by ``RecoveryHarness.attach``);
        #: drives periodic checkpoints from the commit point
        self.recovery = None
        self.stats = SchedulerStats()
        self._last_broken_unit_ids: tuple[int, ...] | None = None
        self._next_deferred_refresh = (
            defer_du_interval if defer_du_interval is not None else 0.0
        )
        #: quarantined sources: name -> virtual time to probe again
        self._quarantined: dict[str, float] = {}
        #: unit ids already counted in ``stats.deferred_units`` for the
        #: current outage (cleared when the deferred set empties)
        self._counted_deferred_ids: set[int] = set()
        #: the dependency graph and footprint cache maintained alongside
        #: the UMQ, so each detection round costs what *changed* since
        #: the last round, not the queue size
        self.substrate = IncrementalDependencyGraph(
            self.umq,
            view_queries=lambda: self.manager.maintenance_queries,
            rewritten_query=self._speculative_rewrite,
            epoch=lambda: self.manager.detection_epoch,
            metrics=self.manager.metrics,
            source_reads=lambda: sum(
                m.synchronizer.consults for m in self.manager.view_managers()
            ),
        )

    def detach(self) -> None:
        """Unhook the substrate's UMQ listener (when this scheduler is
        replaced by another on the same queue)."""
        self.substrate.detach()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    @property
    def engine(self) -> SimEngine:
        return self.manager.engine

    @property
    def umq(self):
        return self.manager.umq

    def _speculative_rewrite(self, message: UpdateMessage):
        """Footprint helper: the view(s) after this schema change, asked
        without committing — VS is pure but for a relation replacement's
        live-schema reads, counted in ``ViewSynchronizer.consults``."""
        return self.manager.speculative_queries(message)

    def _charge(self, duration: float, kind: str) -> None:
        if duration > 0:
            self.engine.perform(Delay(duration, kind))

    def _maybe_checkpoint(self) -> None:
        if self.recovery is not None:
            self.recovery.maybe_checkpoint()

    # ------------------------------------------------------------------
    # stated once for the serial loop and the parallel executor
    # ------------------------------------------------------------------

    def _pre_exec_round(self) -> None:
        """Line 1 of Figure 6: a pessimistic strategy pays the flag
        check and, if a schema change arrived since the last one,
        detects and corrects over the whole UMQ."""
        if self.strategy.pre_exec:
            self._charge(self.manager.cost.detection_flag_check, "detection")
            if self.umq.test_and_clear_schema_change_flag():
                self.detect_and_correct()

    def _record_abort(self, unit: MaintenanceUnit, wasted: float) -> None:
        """A query of ``unit`` broke after ``wasted`` virtual seconds of
        maintenance: the paper's abort metrics and anomaly type 3 / 4."""
        metrics = self.manager.metrics
        metrics.aborts += 1
        metrics.abort_cost += wasted
        metrics.anomalies[
            AnomalyType.SC_CONFLICTS_WITH_M_SC
            if unit.has_schema_change
            else AnomalyType.SC_CONFLICTS_WITH_M_DU
        ] += 1
        if self.engine.tracer.enabled:
            self.engine.tracer.record(
                self.engine.clock.now,
                trace_kinds.ABORT,
                f"wasted {wasted:.3f}s on {unit.describe()}",
            )

    def _record_commit(
        self, unit: MaintenanceUnit, self_maintained: bool
    ) -> None:
        """``unit``'s maintenance committed; ``self_maintained`` says
        it took no wire trip."""
        metrics = self.manager.metrics
        self._last_broken_unit_ids = None
        if not unit.has_schema_change:
            metrics.data_unit_rounds += 1
            if self_maintained:
                metrics.self_maintained_units += 1
        metrics.maintenance_rounds += 1

    # ------------------------------------------------------------------
    # detection + correction round
    # ------------------------------------------------------------------

    def _detection_work_cost(self) -> float:
        """Virtual time for this round's detection work: what the
        incremental substrate actually performed since the last round
        (full-rate for rebuild fallbacks, incremental-rate for
        cached/remap work)."""
        cost = self.manager.cost
        full_nodes, full_edges, inc_nodes, inc_edges = (
            self.substrate.consume_work()
        )
        return cost.detection(full_nodes, full_edges) + (
            cost.detection_incremental(inc_nodes, inc_edges)
        )

    def detect_and_correct(self) -> CorrectionResult:
        """Lines 4-5 of Figure 6: build the graph, fix the order."""
        result = correct(self.umq.messages(), self.substrate.detection())
        # Install the corrected order before charging the detection
        # delay: commits firing inside the delay window must append
        # behind the corrected schedule, not invalidate it.
        self.umq.replace_order(result.units)
        cost = self.manager.cost
        self._charge(
            self._detection_work_cost()
            + cost.correction(result.node_count, result.edge_count),
            "detection",
        )
        metrics = self.manager.metrics
        metrics.detection_rounds += 1
        metrics.graph_builds += 1
        metrics.cycle_merges += result.merges
        self.stats.corrections += 1
        self.engine.tracer.record(
            self.engine.clock.now,
            trace_kinds.CORRECTION,
            f"{result.node_count} nodes, {result.edge_count} edges, "
            f"{result.merges} merges",
        )
        return result

    def _merge_whole_queue(self) -> None:
        result = merge_all(self.umq.messages(), self.substrate.detection())
        # Install before charging: commits firing inside the charge
        # window must append behind the merged order, not invalidate it
        # (same ordering as detect_and_correct).
        self.umq.replace_order(result.units)
        cost = self.manager.cost
        self._charge(
            cost.correction(result.node_count, result.edge_count),
            "detection",
        )
        self.manager.metrics.cycle_merges += result.merges

    def _group_safe_runs(self) -> None:
        """Adaptive group maintenance: merge safe runs of the queue.

        Runs after pre-exec correction (the scan must see the corrected
        order) and is skipped during outages — quarantine deferral
        reorders the queue at unit granularity, and folding a blocked
        unit into a batch would block the whole batch.  The merge
        itself preserves legality (see :mod:`repro.maintenance
        .grouping`): admitted units are SC-free, so no concurrent edge
        can terminate inside a batch and Theorem 1's broken-query
        detection is untouched.
        """
        policy = self.batch_policy
        if policy is None or len(self.umq) < 2 or self._quarantined:
            return
        units = list(self.umq.units)
        runs = find_safe_runs(units, policy)
        if not runs:
            return
        order, grouped = merge_runs(units, runs)
        # A run that only extends an existing batch (the parallel
        # executor regroups every dispatch round) is not a new batch.
        fresh = sum(
            1
            for start, end in runs
            if not any(unit.is_batch for unit in units[start:end])
        )
        # Install before charging, as everywhere: commits firing inside
        # the charge window must append behind the grouped order.
        self.umq.replace_order(order)
        metrics = self.manager.metrics
        metrics.batches_formed += fresh
        metrics.grouped_messages += grouped
        self._charge(self.manager.cost.batch_merge(grouped), "batch_merge")
        self.engine.tracer.record(
            self.engine.clock.now,
            trace_kinds.BATCH,
            f"{len(runs)} batch(es) over {grouped} messages",
        )

    def _force_progress(self, broken_source: str) -> None:
        """Safety valve for repeat-breaking heads.

        If the same head unit breaks twice and correction does not
        change the schedule (possible when the conflict only exists
        against the *rewritten* definition mid-flight), merge the head
        with the schema changes of the breaking source so the batch is
        maintained atomically.  This preserves Dyno's termination
        argument (Section 4.4) under adversarial interleavings.  Every
        queued unit that must precede an absorbed one is absorbed too,
        so the merge never puts a unit ahead of what committed before it.
        """
        units = list(self.umq.units)
        seeds = {0} | {
            index
            for index, unit in enumerate(units)
            if any(
                message.is_schema_change and message.source == broken_source
                for message in unit
            )
        }
        if len(seeds) == 1:
            # Nothing to absorb (the breaking change is not queued yet):
            # wait for it to arrive before retrying; with nothing even
            # scheduled there is nothing to merge either, so just retry
            # (the max_iterations guard bounds the degenerate case).
            self.engine.advance_to_next_event()
            return
        absorbed = closure(
            seeds, self.substrate.unit_dependencies(), forward=False
        )
        merged = MaintenanceUnit.merged([units[i] for i in sorted(absorbed)])
        rest = [unit for i, unit in enumerate(units) if i not in absorbed]
        self.umq.replace_order([merged] + rest)
        self.stats.forced_merges += 1

    # ------------------------------------------------------------------
    # fault handling: classification, quarantine, deferral
    # ------------------------------------------------------------------

    def _classify_transient(self, error: SourceError) -> bool:
        """True iff ``error`` is an outage rather than a broken query.

        Outages quarantine their source; each classification is one
        avoided false broken-query flag.
        """
        if not isinstance(
            error, (TransientSourceError, SourceUnavailableError)
        ):
            return False
        self.stats.false_flags_avoided += 1
        self._quarantine(error.source, error.retry_at)
        return True

    def _quarantine(self, source: str, retry_at: float | None) -> None:
        """Bench ``source`` until ``retry_at`` (or a probe interval)."""
        now = self.engine.clock.now
        if retry_at is not None and retry_at > now:
            until = retry_at
        else:
            policy = self.engine.retry_policy
            probe = (
                policy.quarantine_probe
                if policy is not None
                else DEFAULT_QUARANTINE_PROBE
            )
            until = now + probe
        # Re-quarantining only ever extends the rest period.
        self._quarantined[source] = max(
            until, self._quarantined.get(source, until)
        )
        self.stats.quarantine_events.append((now, source, until))
        self.engine.tracer.record(
            now, trace_kinds.QUARANTINE, f"{source} until {until:.3f}"
        )

    def _lift_due_quarantines(self) -> None:
        if not self._quarantined:
            return  # the lift that emptied it cleared the counted ids
        now = self.engine.clock.now
        for source, until in list(self._quarantined.items()):
            if now >= until:
                del self._quarantined[source]
                self.stats.resumed_sources += 1
                self.engine.tracer.record(
                    now, trace_kinds.RESUME, source
                )
        if not self._quarantined:
            # The outage is over: the next outage counts its deferred
            # units afresh.
            self._counted_deferred_ids.clear()

    def _deferred_unit_indices(self) -> set[int]:
        """Units that must wait for a quarantined source to recover.

        Reuses the Definition 3/4 machinery: a unit is *directly*
        deferred when any of its messages' maintenance footprints reads
        a quarantined source; deferral then propagates along the
        unit-level blocking relation ``ready_units`` reads (``before``
        deferred => ``after`` deferred) so demoting active units past
        deferred ones can never violate a CD or SD.
        """
        # Footprints and unit pairs are served from the live substrate:
        # one cached lookup per message, no message-level edge.
        unit_of = [i for i, unit in enumerate(self.umq.units) for _ in unit]
        deferred = {
            unit_index
            for index, unit_index in enumerate(unit_of)
            if any(
                source in self._quarantined
                for source, _ in self.substrate.footprint_at(index).relations
            )
        }
        return closure(deferred, self.substrate.unit_dependencies())

    def _make_runnable_head(self) -> bool:
        """Move quarantine-independent units ahead of deferred ones.

        Returns False when *every* queued unit depends on a quarantined
        source — nothing is runnable until recovery.  Every pass
        consults the dependency graph, so every pass charges detection
        time and counts a graph build — detection work is never free
        virtual time, demotion or not.
        """
        deferred = self._deferred_unit_indices()
        self.manager.metrics.graph_builds += 1
        # The pass itself sweeps cached footprints and propagates
        # deferral along the edges: incremental-rate work.
        detection_cost = (
            self._detection_work_cost()
            + self.manager.cost.detection_incremental(
                self.substrate.node_count, self.substrate.edge_count
            )
        )
        if not deferred:
            self._counted_deferred_ids.clear()
            self._charge(detection_cost, "detection")
            return True
        units = list(self.umq.units)
        if len(deferred) == len(units):
            self._charge(detection_cost, "detection")
            return False
        active = [
            unit
            for index, unit in enumerate(units)
            if index not in deferred
        ]
        held = [
            unit for index, unit in enumerate(units) if index in deferred
        ]
        demoted = any(
            index in deferred for index in range(len(active))
        )
        if demoted:
            # Install the order before charging (commits inside the
            # charge window must append behind it, as in
            # detect_and_correct).
            self.umq.replace_order(active + held)
        # Count each unit once per stay in the deferred set, not once
        # per deferral round: one long outage must not inflate the
        # counter by held-count x rounds.
        held_ids = {id(unit) for unit in held}
        self.stats.deferred_units += len(
            held_ids - self._counted_deferred_ids
        )
        self._counted_deferred_ids = held_ids
        self._charge(detection_cost, "detection")
        return True

    def _wait_for_recovery(self) -> None:
        """All queued units are parked: sleep until the earliest probe
        time or the next autonomous event, whichever comes first."""
        # The parallel executor commits work at pool completion times,
        # which can carry the clock past the earliest probe (or a
        # pending autonomous event) before every worker drains — never
        # ask the engine to move the clock backwards.
        now = self.engine.clock.now
        next_probe = max(min(self._quarantined.values()), now)
        next_event = self.engine.next_event_time()
        if next_event is not None and next_event < next_probe:
            self.engine.advance_to(max(next_event, now))
        else:
            self.engine.advance_to(next_probe)
        self._lift_due_quarantines()

    # ------------------------------------------------------------------
    # the Dyno loop
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """One scheduling decision: maintain one unit, or advance to the
        next pending commit when the queue is idle.

        Returns ``False`` when fully quiescent (nothing queued, nothing
        scheduled).  Useful for driving the system incrementally —
        monitoring dashboards, interleaved test assertions — instead of
        running to completion.

        The public entry wraps the strategy-specific ``_step_impl``
        with plan-cache accounting: the process-global compiled-plan
        cache's hit/miss/eviction deltas across the step are harvested
        into this scheduler's metrics, so interleaved multi-shard runs
        attribute kernel cache efficiency to the shard that stepped.
        """
        before = (PLAN_CACHE.hits, PLAN_CACHE.misses, PLAN_CACHE.evictions)
        try:
            return self._step_impl()
        finally:
            metrics = self.manager.metrics
            metrics.plan_cache_hits += PLAN_CACHE.hits - before[0]
            metrics.plan_cache_recompiles += PLAN_CACHE.misses - before[1]
            metrics.plan_cache_evictions += PLAN_CACHE.evictions - before[2]

    def _step_impl(self) -> bool:
        metrics = self.manager.metrics
        self._lift_due_quarantines()
        if self.umq.is_empty():
            return self.engine.advance_to_next_event()
        if self.defer_du_interval is not None and self._defer_step():
            return True
        self.stats.iterations += 1
        self.engine.crash_point("serial.pre_detect")

        # Line 1: pessimistic pre-exec detection behind the flag.
        self._pre_exec_round()
        if self.umq.is_empty():
            return True

        # Graceful degradation: with sources in quarantine, run only
        # maintenance that does not depend on them; park the rest.
        if self._quarantined and not self._make_runnable_head():
            self._wait_for_recovery()
            return True

        # Adaptive group maintenance over the corrected queue.
        self._group_safe_runs()

        self.engine.crash_point("serial.pre_maintain")
        unit = self.umq.head()
        started_at = self.engine.clock.now
        trips_before = metrics.source_round_trips
        process = self.manager.build_maintenance(unit)
        try:
            self.engine.run_process(process)
        except BrokenQueryError as broken:
            self._record_abort(unit, self.engine.clock.now - started_at)
            self._handle_broken_query(unit, broken)
            return True
        except SourceUnavailableError as down:
            # An outage, not an anomaly: retries are exhausted and the
            # partial work is discarded, but no broken-query flag is
            # raised and none of the paper's abort metrics move.
            if self.engine.tracer.enabled:
                wasted = self.engine.clock.now - started_at
                self.engine.tracer.record(
                    self.engine.clock.now,
                    trace_kinds.FAULT,
                    f"abandoned {unit.describe()} after {wasted:.3f}s: {down}",
                )
            self._handle_broken_query(unit, down)
            return True
        # Success: line 12, remove the head.
        self.engine.crash_point("serial.pre_commit")
        self._record_commit(
            unit, metrics.source_round_trips == trips_before
        )
        self.umq.remove_head()
        self.engine.crash_point("serial.post_commit")
        self._maybe_checkpoint()
        return True

    def _defer_step(self) -> bool:
        """Deferred-mode gate: postpone pure-DU queues until due.

        Returns True when this step was consumed by deferral (waited or
        coalesced); False to fall through to ordinary processing.
        """
        if any(
            message.is_schema_change for message in self.umq.messages()
        ):
            return False  # SCs take priority: normal Dyno processing
        now = self.engine.clock.now
        next_event = self.engine.next_event_time()
        if now < self._next_deferred_refresh:
            if next_event is not None and next_event < self._next_deferred_refresh:
                self.engine.advance_to_next_event()
            else:
                self.engine.advance_to(self._next_deferred_refresh)
            return True
        # Due: coalesce every queued DU into one batch unit.
        messages = self.umq.messages()
        if len(messages) > 1:
            self.umq.replace_order([MaintenanceUnit(list(messages))])
        # Schedule off the previous deadline, not off ``now``: anchoring
        # to the deadline keeps the cadence the constructor promised
        # even when a batch's maintenance (or an idle stretch) overruns
        # it.  Skip whole intervals already in the past.
        deadline = self._next_deferred_refresh + self.defer_du_interval
        while deadline <= now:
            deadline += self.defer_du_interval
        self._next_deferred_refresh = deadline
        return False  # fall through and maintain the coalesced batch

    def run(self) -> SchedulerStats:
        """Process until the UMQ is empty and no commits are pending."""
        while self.stats.iterations < self.max_iterations:
            if not self.step():
                break  # quiescent
        return self.finish()

    def finish(self) -> SchedulerStats:
        """Post-quiescence epilogue; returns the stats.

        Callers that drive the scheduler via :meth:`step` themselves —
        the :class:`~repro.core.sharding.ShardedWarehouse` coordinator
        interleaves many schedulers — call this once at the end, as
        :meth:`run` does (the parallel executor stamps its makespan)."""
        return self.stats

    def _handle_broken_query(
        self, unit: MaintenanceUnit, broken: SourceError
    ) -> None:
        # Classification first (in-exec detection, refined): a failure
        # that is merely *transient* must never raise the broken-query
        # flag — a spurious flag would fabricate an unsafe dependency
        # (Theorem 1 reads broken query => conflicting SC committed)
        # and trigger a pointless abort/reorder or forced merge.
        if self._classify_transient(broken):
            return
        self.stats.genuine_broken_flags += 1
        assert isinstance(broken, BrokenQueryError)
        self._apply_broken_query_policy(unit, broken)

    def _apply_broken_query_policy(
        self, unit: MaintenanceUnit, broken: BrokenQueryError
    ) -> None:
        """The strategy's answer to a genuine broken query on ``unit``
        (still queued): skip it, merge the whole queue, or correct the
        order.  Shared by the serial abort handler and the parallel
        executor's quiet-point policy drain."""
        policy = self.strategy.on_broken_query
        if policy is BrokenQueryPolicy.SKIP:
            self.umq.remove_unit(unit)
            journal = getattr(self.manager, "journal", None)
            if journal is not None:
                journal.record_skip(unit)
            self.stats.skipped_updates += 1
            return
        if policy is BrokenQueryPolicy.MERGE_ALL:
            self._merge_whole_queue()
            return
        # Dyno: correct.  Detect the repeat-break case first.
        unit_ids = tuple(id(message) for message in unit)
        repeat = unit_ids == self._last_broken_unit_ids
        self._last_broken_unit_ids = unit_ids
        self.detect_and_correct()
        still_head = (
            not self.umq.is_empty()
            and tuple(id(message) for message in self.umq.head())
            == unit_ids
        )
        if repeat and still_head:
            self._force_progress(broken.source)
