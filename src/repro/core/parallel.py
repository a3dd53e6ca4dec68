"""The parallel maintenance executor.

Definition 7 / Theorem 2 prove that *any* topological order of the
dependency graph is a legal maintenance order — so units with no path
between them need not merely be reorderable, they can be maintained
**concurrently**.  :class:`ParallelScheduler` exploits exactly that: it
consumes the incremental dependency graph's ready-set API to find the
antichain of currently-unblocked UMQ units and hands them to N simulated
workers (:mod:`repro.sim.workers`), with the virtual clock charging
*makespan* — per-worker timelines meeting at the critical path — instead
of summed serial cost.

Safety rules (each mirrors a serial-Dyno invariant):

* **gating** — a unit is dispatchable only when it has no predecessor in
  the dependency graph still queued (``ready_units``), no in-flight unit
  touching one of its ``(source, relation)`` keys (the semantic-edge
  condition, preserved across the dispatch boundary), and no quarantined
  source in its maintenance footprint;
* **barrier rule** — SC-bearing units (including batch units holding a
  schema change) run solo: they wait for every worker to drain and
  block dispatch while running.  Since every concurrent (CD) edge
  originates at a schema change, the barrier plus the touched-key check
  covers all inter-unit edges whose predecessor already left the queue.
  DU-only batch units — voluntary groups formed by a
  :class:`~repro.maintenance.grouping.BatchPolicy`, deferred-mode
  coalesces — carry only forward semantic edges and therefore stay
  leapfrog-eligible like any data update;
* **dispatch-order serialization** — the legal order actually realized
  is the dispatch order.  SWEEP compensation for a unit U therefore
  subtracts exactly the messages serialized *after* U: the queue
  snapshot at U's dispatch, arrivals while U runs, and units requeued by
  aborts while U runs (deduplicated), fed live through the view
  manager's ``pending_feed`` hook.  Units dispatched before U are never
  compensated away — each concurrent pair is compensated exactly once;
* **dispatch-order installation** — computed outcomes install in
  dispatch order, not completion order.  A unit's delta is computed
  relative to the units serialized before it; applying it while an
  earlier-dispatched unit is still in flight would write a view state
  that assumes the earlier delta is already there (transiently negative
  counts at best, silent drift at worst).  A unit finishing out of turn
  parks its prepared outcome (worker stays busy) until every
  earlier-dispatched unit has installed or requeued;
* **taint restart** — when a unit U requeues (abort or abandonment),
  every in-flight or parked unit that already consumed a query answer
  is restarted: its answers treated U as serialized *before* it (U was
  not in its pending overlay at compensation time), and U's requeue
  re-serializes U behind it.  Units that have consumed no answer yet
  are safe — their pending overlay is live and now includes U.  Worker
  events carry an assignment epoch so a restarted worker's stale
  events (delays, trips, retries, transfers) are inert;
* **abort isolation** — a broken query aborts only that worker's unit;
  the unit requeues at the front and the strategy's broken-query policy
  (correct / merge-all / skip) is applied once all workers drain, since
  queue-wide surgery under in-flight maintenance would be unsound.
  Outages (exhausted retries) quarantine the source and requeue the
  unit without raising the broken-query flag, as in the serial path;
* **coordination lag** — detection/dispatch work performed while workers
  run cannot advance the global clock (worker events would fire late and
  compensation would mis-date answers); it is charged to the metrics and
  to a coordinator-backlog watermark that delays subsequent dispatches.

Per-source **query batching** rides on the worker model: when a source's
query channel is saturated (``CostModel.source_channel_limit``), waiting
IN-list probes from different units coalesce into one combined round
trip charged ``query_base`` once, evaluated at one shared instant, and
split back per unit on answer (:class:`~repro.sim.workers.SourceChannel`).
"""

from __future__ import annotations

from ..sim import trace as trace_kinds
from ..sim.engine import WAREHOUSE_OWNER, QueryAnswer, RetryState
from ..sim.effects import Checkpoint, Delay, SourceQuery
from ..sim.workers import QueryJob, SourceChannel, Trip, WorkerPool, WorkerState
from ..sources.errors import (
    BrokenQueryError,
    SourceUnavailableError,
    TransientSourceError,
)
from ..sources.messages import UpdateMessage
from ..views.multi import MultiViewManager
from ..views.umq import MaintenanceUnit
from .scheduler import DynoScheduler, SchedulerStats
from .strategies import PESSIMISTIC, Strategy, check_parallel_strategy


class ParallelScheduler(DynoScheduler):
    """Dyno with N workers draining the UMQ's ready antichain.

    ``workers=1`` degenerates to serial execution under the same
    event-driven machinery — the honest baseline arm for speedup
    measurements (identical dispatch overheads, identical batching
    rules with nobody to batch with).
    """

    def __init__(
        self,
        manager: MultiViewManager,
        strategy: Strategy = PESSIMISTIC,
        workers: int = 2,
        max_iterations: int = 1_000_000,
        batch_policy=None,
    ) -> None:
        check_parallel_strategy(strategy, workers)
        super().__init__(
            manager,
            strategy,
            max_iterations=max_iterations,
            batch_policy=batch_policy,
        )
        self.pool = WorkerPool(workers)
        self.channels: dict[str, SourceChannel] = {}
        #: dispatch-order commit FIFO: outcomes install strictly in
        #: this order, never in completion order
        self._commit_order: list[WorkerState] = []
        #: coordinator backlog: detection/dispatch work performed while
        #: workers run delays later dispatches instead of the clock
        self._coordinator_free_at = 0.0
        #: aborted units awaiting policy application at the next
        #: all-idle point (queue-wide surgery needs a quiet queue)
        self._pending_policies: list[
            tuple[MaintenanceUnit, BrokenQueryError]
        ] = []
        #: an SC-bearing unit is running solo
        self._barrier_in_flight = False
        #: UMQ mutations seen by the listener methods below
        self._umq_mutations = 0
        #: the inputs of the last scan that picked nothing (the no-pick
        #: verdict): while they are unchanged, the scan is not repeated
        self._no_pick: tuple | None = None
        self.umq.add_listener(self)

    def detach(self) -> None:
        super().detach()
        self.umq.remove_listener(self)

    # ------------------------------------------------------------------
    # UMQ listener: keep every in-flight overlay current, and count the
    # mutations (an input of the no-pick verdict)
    # ------------------------------------------------------------------

    def umq_received(self, message: UpdateMessage) -> None:
        self._umq_mutations += 1
        for worker in self.pool.busy_workers():
            worker.add_pending(message)

    def umq_requeued_front(self, unit: MaintenanceUnit) -> None:
        self._umq_mutations += 1
        # A requeued abort is now serialized after everything in flight.
        for worker in self.pool.busy_workers():
            for message in unit:
                worker.add_pending(message)

    def umq_removed_head(self, unit: MaintenanceUnit) -> None:
        self._umq_mutations += 1

    def umq_removed_unit(self, unit: MaintenanceUnit, index: int) -> None:
        self._umq_mutations += 1

    def umq_reordered(self, units: list[MaintenanceUnit]) -> None:
        self._umq_mutations += 1

    # ------------------------------------------------------------------
    # time accounting
    # ------------------------------------------------------------------

    def _charge(self, duration: float, kind: str) -> None:
        """Coordinator work: clock time when quiet, backlog when not.

        Advancing the global clock while workers hold scheduled events
        would evaluate their queries late (anachronism), so coordination
        performed mid-flight only delays future dispatches.
        """
        if duration <= 0:
            return
        if self.pool.any_busy:
            self.engine.metrics.charge(kind, duration)
            self._coordinator_free_at = (
                max(self._coordinator_free_at, self.engine.clock.now)
                + duration
            )
        else:
            super()._charge(duration, kind)

    def _charge_worker(
        self, worker: WorkerState, kind: str, duration: float
    ) -> None:
        self.engine.metrics.charge(kind, duration)
        if duration > 0:
            worker.busy_time += duration
            self.engine.metrics.worker_busy_time[worker.index] += duration

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------

    def _channel(self, source_name: str) -> SourceChannel:
        channel = self.channels.get(source_name)
        if channel is None:
            channel = SourceChannel(
                source_name, self.manager.cost.source_channel_limit
            )
            self.channels[source_name] = channel
        return channel

    @staticmethod
    def _is_barrier(unit: MaintenanceUnit) -> bool:
        """SC-bearing units run solo (every concurrent edge originates
        at a schema change).  DU-only batches — voluntary groups,
        deferred coalesces, SC-free merge-alls — carry only forward
        semantic edges, which ``ready_units`` plus the touched-key gate
        already enforce, so they stay leapfrog-eligible."""
        return unit.has_schema_change

    @staticmethod
    def _touched_keys(unit: MaintenanceUnit) -> frozenset[tuple[str, str]]:
        return frozenset(
            (message.source, relation)
            for message in unit
            for relation in message.touched_relations()
        )

    def _quarantine_blocked(self, unit: MaintenanceUnit) -> bool:
        if not self._quarantined:
            return False
        substrate = self.substrate
        substrate.cache.validate()
        for message in unit:
            footprint = substrate.cache.lookup(
                message, substrate.resolver
            )
            if any(
                source in self._quarantined
                for source, _relation in footprint.relations
            ):
                return True
        return False

    def _pick_unit(self) -> MaintenanceUnit | None:
        """The earliest dispatchable unit, or ``None``.

        Scans the ready antichain in queue order and never leapfrogs a
        barrier unit that is only waiting for workers to drain — once an
        SC-bearing unit becomes the earliest ready unit, dispatch
        pauses behind it, bounding its starvation.
        """
        units = self.umq.units
        if not units:
            return None
        busy_keys: set[tuple[str, str]] = set()
        for worker in self.pool.workers:
            busy_keys |= worker.touched
        for index in self.substrate.ready_units():
            unit = units[index]
            if self._quarantine_blocked(unit):
                continue
            if self._is_barrier(unit):
                if self.pool.any_busy:
                    return None  # barrier: drain first, no leapfrogging
                return unit
            if not busy_keys.isdisjoint(self._touched_keys(unit)):
                continue
            return unit
        return None

    def _scan_inputs(self) -> tuple:
        """Everything :meth:`_pick_unit` reads that can change between
        rounds: the queue and the substrate that mirrors it (the
        mutation count), the in-flight units (the worker generations),
        the barrier, the parked policies, the view versions footprints
        are cached under, and the quarantined sources."""
        return (
            self._umq_mutations,
            tuple(worker.generation for worker in self.pool.workers),
            self._barrier_in_flight,
            len(self._pending_policies),
            self.manager.detection_epoch,
            frozenset(self._quarantined),
        )

    def _verdict_holds(self, inputs: tuple) -> bool:
        """The last scan found nothing on these very inputs."""
        return inputs == self._no_pick

    def _next_unit(self) -> MaintenanceUnit | None:
        """:meth:`_pick_unit`, unless it already found nothing on
        unchanged inputs (ALGORITHMS.md §Dispatch gating, the no-pick
        verdict).  An idle pool's round scans in full: its charges
        advance the clock, so events fire inside the round."""
        if not self.pool.any_busy:
            return self._pick_unit()
        inputs = self._scan_inputs()
        if self._verdict_holds(inputs):
            return None
        unit = self._pick_unit()
        if unit is None:
            self._no_pick = inputs
        return unit

    def _dispatch_round(self) -> int:
        """Hand ready units to idle workers; returns dispatch count."""
        if self._pending_policies:
            if self.pool.any_busy:
                return 0
            self._apply_pending_policies()
        if self._barrier_in_flight or self.umq.is_empty():
            return 0
        self._pre_exec_round()
        # Group safe runs across the whole queue (not just the head):
        # several workers can each take a batch this round.  In-flight
        # units already left the queue, so their overlays are untouched.
        self._group_safe_runs()
        if self.pool.idle_worker() is None:
            return 0
        # The ready-set scan: drained substrate mutations plus one
        # incremental-rate sweep of the live graph.
        self._charge(
            self._detection_work_cost()
            + self.manager.cost.detection_incremental(
                self.substrate.node_count, self.substrate.edge_count
            ),
            "detection",
        )
        dispatched = 0
        while not self._barrier_in_flight:
            worker = self.pool.idle_worker()
            if worker is None:
                break
            unit = self._next_unit()
            if unit is None:
                break
            self._dispatch(worker, unit)
            dispatched += 1
        if (
            not dispatched
            and self.pool.all_idle
            and not self.umq.is_empty()
            and not self.substrate.ready_units()
        ):
            # Every queued unit has a queued predecessor: the
            # dependency graph holds a cycle (CD edges around schema
            # changes).  Serial Dyno dissolves cycles inside correct()
            # by merging each into one batch unit (Definition 7); the
            # parallel loop only reaches correction through the
            # pre-exec flag or an abort policy, so a cycle surfacing
            # between those points would deadlock the dispatcher.
            self.detect_and_correct()
            worker = self.pool.idle_worker()
            unit = self._pick_unit()
            if worker is not None and unit is not None:
                self._dispatch(worker, unit)
                dispatched += 1
        return dispatched

    def _dispatch(self, worker: WorkerState, unit: MaintenanceUnit) -> None:
        self.stats.iterations += 1
        self.engine.crash_point("parallel.pre_dispatch")
        self._charge(self.manager.cost.dispatch_overhead, "dispatch")
        self.umq.remove_unit(unit)
        # Everything still queued is serialized behind this unit.
        snapshot = self.umq.messages()
        # Re-read the clock: charging with an idle pool advances it.
        start_at = max(self.engine.clock.now, self._coordinator_free_at)
        worker.assign(
            unit, None, start_at, snapshot, self._touched_keys(unit)
        )
        worker.process = self.manager.compute_unit(
            unit, pending_feed=worker.pending_feed()
        )
        self._commit_order.append(worker)
        if self._is_barrier(unit):
            self._barrier_in_flight = True
        metrics = self.engine.metrics
        metrics.dispatched_units += 1
        self.pool.note_parallelism()
        if self.pool.peak_parallelism > metrics.peak_parallelism:
            metrics.peak_parallelism = self.pool.peak_parallelism
        self._resume_later(start_at, worker)
        self.engine.crash_point("parallel.post_dispatch")

    # ------------------------------------------------------------------
    # driving one worker's maintenance generator
    # ------------------------------------------------------------------

    def _resume_later(
        self, at: float, worker: WorkerState, payload: object = None
    ) -> None:
        """Schedule a process resume that is inert if the worker's unit
        is torn down (or the worker reassigned) before it fires."""
        generation = worker.generation
        self.engine.schedule(
            at,
            lambda: self._resume_if_current(worker, generation, payload),
            owner=WAREHOUSE_OWNER,
        )

    def _resume_if_current(
        self, worker: WorkerState, generation: int, payload: object = None
    ) -> None:
        if worker.generation != generation or worker.process is None:
            return
        self._advance_process(worker, payload=payload)

    def _advance_process(
        self,
        worker: WorkerState,
        payload: object = None,
        throw: BaseException | None = None,
    ) -> None:
        """Resume a worker's generator at the current instant and drive
        it until it needs time (Delay/SourceQuery) or finishes."""
        process = worker.process
        assert process is not None, "event for an idle worker"
        if isinstance(payload, QueryAnswer):
            # Consumed answers pin this unit's view of what ran before
            # it; a later requeue of any of those units taints it.
            worker.answers_seen += 1
        send_value = payload
        throw_exc = throw
        while True:
            try:
                if throw_exc is not None:
                    effect = process.throw(throw_exc)
                    throw_exc = None
                else:
                    effect = process.send(send_value)
            except StopIteration as stop:
                self._complete(worker, stop.value)
                return
            except BrokenQueryError as broken:
                self._abort(worker, broken)
                return
            send_value = None
            if isinstance(effect, Delay):
                self._charge_worker(worker, effect.kind, effect.duration)
                if effect.duration > 0:
                    self._resume_later(
                        self.engine.clock.now + effect.duration, worker
                    )
                    return
                continue  # zero-cost: keep driving inline
            if isinstance(effect, Checkpoint):
                send_value = self.engine.clock.now
                continue
            if isinstance(effect, SourceQuery):
                self._submit_query(worker, effect)
                return
            raise TypeError(f"unknown effect {effect!r}")

    def _submit_query(self, worker: WorkerState, effect: SourceQuery) -> None:
        """Local tier first (:meth:`~repro.sim.engine.SimEngine
        .serve_local`), else the source channel.

        A local hit never touches the channel: no admission, no slot,
        no batching — the worker resumes after the (tiny) serve cost
        with an answer pinned at the serve instant, so the
        pending-overlay compensation and the dispatch-order install +
        taint-restart discipline treat it exactly like a real trip
        evaluated now: each concurrent message is compensated exactly
        once (the PR 3 invariant, extended)."""
        served = self.engine.serve_local(effect)
        if served is None:
            self._enqueue_job(
                QueryJob(
                    worker,
                    effect,
                    RetryState(self.engine, effect),
                    self.engine.query_request_cost(effect),
                    generation=worker.generation,
                )
            )
            return
        answer, serve_cost = served
        now = self.engine.clock.now
        self._charge_worker(worker, effect.kind, serve_cost)
        if serve_cost > 0:
            self._resume_later(now + serve_cost, worker, answer)
        else:
            self._advance_process(worker, payload=answer)

    def _enqueue_job(self, job: QueryJob) -> None:
        channel = self._channel(job.effect.source_name)
        trip = channel.submit(job)
        if trip is not None:
            self._start_trip(channel, trip)

    def _resubmit(self, job: QueryJob) -> None:
        """Retry round: re-price the request (source state may have
        drifted) and rejoin the channel line."""
        if job.stale or job.worker.process is None:
            return  # the unit was torn down meanwhile
        job.request_cost = self.engine.query_request_cost(job.effect)
        self._enqueue_job(job)

    def _start_trip(self, channel: SourceChannel, trip: Trip) -> None:
        now = self.engine.clock.now
        metrics = self.engine.metrics
        trip.started_at = now
        combined = trip.combined_request_cost(
            self.manager.cost.query_base
        )
        # One combined round trip; every participant waits it out.
        metrics.charge(trip.jobs[0].effect.kind, combined)
        for job in trip.jobs:
            if combined > 0:
                job.worker.busy_time += combined
                metrics.worker_busy_time[job.worker.index] += combined
        metrics.source_round_trips += 1
        for job in trip.jobs:
            # Any wire trip (retries and combined batch trips included)
            # disqualifies the participating unit from counting as
            # self-maintained at install time.
            job.worker.wire_trips += 1
        if trip.is_batch:
            metrics.batch_round_trips += 1
            metrics.batched_queries += len(trip.jobs)
        trip.answer_at = now + combined
        self.engine.schedule(
            trip.answer_at,
            lambda: self._trip_answered(channel, trip),
            owner=WAREHOUSE_OWNER,
        )

    def _trip_answered(self, channel: SourceChannel, trip: Trip) -> None:
        """The shared answer instant: evaluate every participant's query
        against the source's current state (clock == answer time, so
        compensation sees exactly the commits that preceded it)."""
        now = self.engine.clock.now
        metrics = self.engine.metrics
        channel.release()
        for job in trip.jobs:
            if job.stale or job.worker.process is None:
                # The unit was torn down after this trip departed
                # (abort, abandonment, or taint restart) — the answer
                # has no consumer.
                continue
            try:
                result = self.engine.evaluate_query(job.effect)
            except TransientSourceError as exc:
                elapsed = getattr(exc, "elapsed", 0.0)
                if elapsed > 0:
                    self._charge_worker(
                        job.worker, job.effect.kind, elapsed
                    )
                self.engine.tracer.record(
                    now, trace_kinds.FAULT, str(exc)
                )
                try:
                    pause = job.retry.on_transient(exc, now)
                except SourceUnavailableError as down:
                    self._abandon(job.worker, down)
                    continue
                self.engine.schedule(
                    now + elapsed + pause,
                    lambda j=job: self._resubmit(j),
                    owner=WAREHOUSE_OWNER,
                )
                continue
            except BrokenQueryError as broken:
                metrics.broken_queries += 1
                self.engine.tracer.record(
                    now, trace_kinds.BROKEN, str(broken)
                )
                # In-exec detection: thrown into this worker's process
                # only — the other participants keep their answers.
                self._advance_process(job.worker, throw=broken)
                continue
            transfer = self.engine.transfer_cost(result)
            self._charge_worker(job.worker, job.effect.kind, transfer)
            answer = QueryAnswer(result, now)
            if transfer > 0:
                self._resume_later(now + transfer, job.worker, answer)
            else:
                self._advance_process(job.worker, payload=answer)
        follow_up = channel.next_trip()
        if follow_up is not None:
            self._start_trip(channel, follow_up)

    # ------------------------------------------------------------------
    # unit completion / abort / abandonment
    # ------------------------------------------------------------------

    def _finish_barrier(self, unit: MaintenanceUnit) -> None:
        if self._is_barrier(unit):
            self._barrier_in_flight = False

    def _complete(self, worker: WorkerState, outcome: object) -> None:
        """Park the prepared outcome; install when its turn comes.

        Outcomes install strictly in dispatch order: a unit's delta
        assumes every earlier-dispatched unit's delta is already in the
        view, so installing out of order would transiently corrupt the
        extent — and would make an earlier unit's requeue unrecoverable.
        The worker stays busy while parked, keeping the unit visible to
        the dispatch gate, the barrier rule, and taint restarts.
        """
        worker.outcome = outcome
        worker.outcome_ready = True
        self._drain_commit_queue()

    def _drain_commit_queue(self) -> None:
        while self._commit_order and self._commit_order[0].outcome_ready:
            worker = self._commit_order[0]
            unit = worker.unit
            assert unit is not None
            self.engine.crash_point("parallel.pre_install")
            self._commit_order.pop(0)
            self.manager.install_unit(worker.outcome, unit)
            self._record_commit(unit, worker.wire_trips == 0)
            worker.release()
            self.engine.crash_point("parallel.post_install")
            self._finish_barrier(unit)
            if unit.has_schema_change:
                # The rewrite committed: every cached footprint and
                # every concurrent edge may be stale now (serial
                # head-removal gets this rebuild from the UMQ listener;
                # dispatch removed this unit before its maintenance
                # ran).
                self.substrate.rebuild()
            self._maybe_checkpoint()

    def _abort(self, worker: WorkerState, broken: BrokenQueryError) -> None:
        unit = worker.unit
        assert unit is not None
        self._record_abort(
            unit, self.engine.clock.now - worker.dispatched_at
        )
        self._teardown(worker)
        self._restart_tainted()
        self.umq.requeue_front(unit)
        self._pending_policies.append((unit, broken))
        self._drain_commit_queue()

    def _abandon(
        self, worker: WorkerState, down: SourceUnavailableError
    ) -> None:
        """An outage, not an anomaly: quarantine and requeue quietly."""
        now = self.engine.clock.now
        unit = worker.unit
        assert unit is not None
        if self.engine.tracer.enabled:
            self.engine.tracer.record(
                now,
                trace_kinds.FAULT,
                f"abandoned {unit.describe()} after "
                f"{now - worker.dispatched_at:.3f}s: {down}",
            )
        self._teardown(worker)
        self._restart_tainted()
        self.umq.requeue_front(unit)
        self._classify_transient(down)
        self._drain_commit_queue()

    def _restart_tainted(self) -> None:
        """Restart every dispatched unit that consumed a query answer.

        Called when a unit U requeues: U is re-serialized *behind* the
        in-flight units, but any unit that already consumed an answer
        compensated that answer with U absent from its pending overlay
        — it treated U as serialized before itself, which U's requeue
        just falsified.  Its partial (or parked) computation is
        discarded and the unit requeued for a clean pass.  Units with
        no answers consumed are untouched: their live pending overlay
        picks U up via the requeue listener before any compensation
        runs.
        """
        tainted = [
            candidate
            for candidate in self.pool.workers
            if candidate.unit is not None and candidate.answers_seen > 0
        ]
        for candidate in tainted:
            unit = candidate.unit
            self.stats.tainted_restarts += 1
            if self.engine.tracer.enabled:
                self.engine.tracer.record(
                    self.engine.clock.now,
                    trace_kinds.ABORT,
                    f"taint restart of {unit.describe()} "
                    f"(worker {candidate.index})",
                )
            self._teardown(candidate)
            self.umq.requeue_front(unit)

    def _teardown(self, worker: WorkerState) -> None:
        process = worker.process
        if process is not None:
            process.close()
        if worker in self._commit_order:
            self._commit_order.remove(worker)
        unit = worker.release()
        self._finish_barrier(unit)

    def _apply_pending_policies(self) -> None:
        """All workers idle: apply the broken-query policy for each
        abort that happened since the last quiet point, in abort order
        (only genuine broken queries are parked here — outages went
        through :meth:`_abandon`)."""
        pending = self._pending_policies
        self._pending_policies = []
        for unit, broken in pending:
            self.stats.genuine_broken_flags += 1
            # A previous policy in this drain may have absorbed the
            # unit (merge-all / correction cycle-merge): nothing left
            # to act on.
            if unit in self.umq.units:
                self._apply_broken_query_policy(unit, broken)

    # ------------------------------------------------------------------
    # the event loop
    # ------------------------------------------------------------------

    def _step_impl(self) -> bool:
        """Dispatch what is ready, then advance to the next event.

        Returns ``False`` at quiescence (nothing running, nothing
        queued and dispatchable, nothing scheduled).  Invoked through
        the base class's :meth:`~repro.core.scheduler.DynoScheduler
        .step`."""
        self._lift_due_quarantines()
        progressed = self._dispatch_round() > 0
        if self.engine.advance_to_next_event():
            return True
        if progressed:
            return True
        if self.pool.any_busy:
            # Busy workers always hold a scheduled event; reaching here
            # means the heap and the pool disagree.
            raise RuntimeError("parallel executor stalled with busy workers")
        if not self.umq.is_empty():
            if self._pending_policies:
                return True  # next round applies the policies
            if self._quarantined:
                self._wait_for_recovery()
                return True
        return False

    def finish(self) -> SchedulerStats:
        """Post-quiescence epilogue (see
        :meth:`~repro.core.scheduler.DynoScheduler.finish`): stamps the
        makespan and peak parallelism exactly as :meth:`run` would, so
        coordinators driving :meth:`step` directly report identically."""
        metrics = self.engine.metrics
        metrics.makespan = self.engine.clock.now
        metrics.peak_parallelism = self.pool.peak_parallelism
        return self.stats
