"""The discrete-event simulation engine.

The engine owns the virtual clock, a heap of scheduled autonomous source
commits, the registry of sources, and the cost model.  The view manager
runs *synchronously on top of* the engine: maintenance generators yield
:mod:`~repro.sim.effects` and the engine interprets them, advancing the
clock and firing any source commits that fall inside each time window.

This produces the paper's environment faithfully:

* while a maintenance query is "travelling", other sources keep
  committing — a data update that lands in the window silently leaks into
  the answer (duplication anomaly, fixed by compensation);
* a schema change that lands in the window invalidates the metadata the
  query was built from, and the evaluation raises
  :class:`~repro.sources.errors.BrokenQueryError`, which the engine
  throws into the maintenance generator (in-exec detection).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Generator, Iterable

from ..relational.predicate import Conjunction, InPredicate
from ..relational.query import SPJQuery
from ..relational.table import Table
from ..sources.errors import (
    BrokenQueryError,
    SourceUnavailableError,
    TransientSourceError,
    UpdateApplicationError,
)
from ..sources.source import DataSource
from ..sources.workload import Workload, WorkloadItem
from .clock import SimClock
from .costs import CostModel
from .effects import Checkpoint, Delay, Effect, SourceQuery
from .metrics import Metrics
from . import trace as trace_kinds
from .trace import Tracer

#: a maintenance process: yields effects, receives results
MaintenanceProcess = Generator[Effect, object, object]

#: Event-owner tag for everything the warehouse process schedules
#: (wrapper deliveries, worker resumptions, in-flight round trips).
#: A simulated warehouse crash purges exactly these events; workload
#: commits and other world events carry no owner and survive.
WAREHOUSE_OWNER = "warehouse"


@dataclass(frozen=True)
class QueryAnswer:
    """A query result plus the virtual time it was evaluated at.

    ``answered_at`` is the instant the source computed the result; it is
    what compensation compares against commit timestamps to decide which
    concurrent updates leaked into the answer.  (Transfer time back to
    the view manager is charged *after* evaluation, so updates committing
    during the transfer are correctly NOT compensated.)
    """

    table: Table
    answered_at: float


@dataclass(frozen=True)
class InstallRecord:
    """One committed unit install, as the read front end sees it.

    ``at`` is the virtual install time, ``view_sizes`` maps view name to
    extent cardinality at the new version, and ``messages`` lists the
    ``(source, seqno, committed_at)`` triples the installed unit covered
    — enough to compute per-version commit watermarks without touching
    live warehouse state after the run.
    """

    at: float
    view_sizes: dict[str, int]
    messages: tuple[tuple[str, int, float], ...]


class SimEngine:
    """Interprets effects against virtual time and autonomous commits."""

    def __init__(
        self,
        cost_model: CostModel | None = None,
        trace: bool = False,
        injector: "FaultInjector | None" = None,
        retry_policy: "RetryPolicy | None" = None,
    ) -> None:
        self.clock = SimClock()
        self.cost_model = cost_model or CostModel.paper_default()
        self.metrics = Metrics()
        self.sources: dict[str, DataSource] = {}
        self._events: list[
            tuple[float, int, Callable[[], None], str | None]
        ] = []
        self._sequence = itertools.count()
        #: optional :class:`~repro.recovery.crash.CrashInjector`; when
        #: armed, :meth:`crash_point` can kill the warehouse mid-step
        self.crash_injector = None
        self.tracer = Tracer(enabled=trace)
        self.injector: "FaultInjector | None" = None
        self.retry_policy: "RetryPolicy | None" = retry_policy
        #: the local-answer stores (:mod:`repro.sources.replica`), both
        #: opt-in: the self-maintenance auxiliary store
        #: (:meth:`install_self_maintenance`) and the snapshot cache
        #: (:meth:`install_snapshot_cache`).  With neither armed every
        #: maintenance query pays a real round trip.
        self.selfmaint: "SelfMaintenanceStore | None" = None
        self.snapshot_cache: "SnapshotCache | None" = None
        #: per-install version timeline — one record per committed unit
        #: install, consumed by the read front end to serve versioned
        #: reads post hoc (empty unless a manager runs in this engine)
        self.install_log: list["InstallRecord"] = []
        if injector is not None:
            self.install_faults(injector, retry_policy)

    def record_install(
        self,
        view_sizes: dict[str, int],
        messages: tuple[tuple[str, int, float], ...],
    ) -> None:
        """Append one install record to the version timeline.

        Called by the view managers after a maintenance unit's outcome
        is applied; ``view_sizes`` snapshots every managed view's extent
        cardinality at the new version and ``messages`` lists the
        ``(source, seqno, committed_at)`` triples the unit covered.
        """
        self.install_log.append(
            InstallRecord(
                at=self.clock.now,
                view_sizes=dict(view_sizes),
                messages=messages,
            )
        )

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------

    def add_source(self, source: DataSource) -> DataSource:
        self.sources[source.name] = source
        if self.injector is not None:
            source.fault_gate = self._fault_gate
        return source

    def install_faults(
        self,
        injector: "FaultInjector",
        retry_policy: "RetryPolicy | None" = None,
    ) -> "FaultInjector":
        """Arm fault injection: gate every source's query entry point
        (current and future sources) and set the retry policy the query
        path runs under.  Without an explicit policy a default
        :class:`~repro.faults.retry.RetryPolicy` is used so injected
        transients are actually retried."""
        from ..faults.retry import RetryPolicy

        self.injector = injector
        if retry_policy is not None:
            self.retry_policy = retry_policy
        elif self.retry_policy is None:
            self.retry_policy = RetryPolicy()
        for source in self.sources.values():
            source.fault_gate = self._fault_gate
        return injector

    def _fault_gate(self, source_name: str) -> None:
        if self.injector is not None:
            self.injector.on_query(source_name, self.clock.now)

    def install_snapshot_cache(self) -> "SnapshotCache":
        """Arm the snapshot cache: cacheable maintenance queries are
        answered from a version-stamped memo of earlier answers (see
        :mod:`repro.cache.snapshot`) whenever possible, skipping the
        round trip entirely."""
        from ..cache.snapshot import SnapshotCache

        self.snapshot_cache = SnapshotCache(metrics=self.metrics)
        return self.snapshot_cache

    def install_self_maintenance(self) -> "SelfMaintenanceStore":
        """Arm self-maintaining views: per-relation projected replicas
        (:mod:`repro.maintenance.selfmaint`) answer covered maintenance
        queries with zero round trips, ahead of the snapshot cache."""
        from ..maintenance.selfmaint import SelfMaintenanceStore

        self.selfmaint = SelfMaintenanceStore(metrics=self.metrics)
        return self.selfmaint

    @property
    def local_stores(self) -> list:
        """The armed local-answer stores, in consult order: aux (it
        answers first-time probes too), then cache."""
        return [
            store
            for store in (self.selfmaint, self.snapshot_cache)
            if store is not None
        ]

    def source(self, name: str) -> DataSource:
        return self.sources[name]

    def schedule(
        self,
        at: float,
        action: Callable[[], None],
        owner: str | None = None,
    ) -> None:
        """Schedule an event; ``owner`` tags it for crash purging."""
        heapq.heappush(
            self._events, (at, next(self._sequence), action, owner)
        )

    def purge_owned_events(self, owner: str) -> int:
        """Drop every pending event tagged with ``owner``.

        This is how a simulated warehouse crash loses its in-flight
        deliveries and worker resumptions; world events (autonomous
        source commits) are untagged and survive."""
        survivors = [
            event for event in self._events if event[3] != owner
        ]
        purged = len(self._events) - len(survivors)
        if purged:
            self._events = survivors
            heapq.heapify(self._events)
        return purged

    def crash_point(self, name: str) -> None:
        """Named kill point; a no-op unless a crash injector is armed."""
        if self.crash_injector is not None:
            self.crash_injector.on_point(name, self.clock.now)

    def schedule_commit(self, item: WorkloadItem) -> None:
        """Schedule one autonomous commit for its workload time.

        A commit the source itself rejects (e.g. a stale intent racing a
        schema change at its own source) is the *source's* local failure
        — autonomous sources do not consult anyone — so it is counted
        and traced but never propagates into the view manager.
        """

        def fire() -> None:
            source = self.sources[item.source_name]
            update = item.intent.materialize(source)
            if update is None:
                return
            try:
                message = source.commit(update, at=self.clock.now)
            except UpdateApplicationError as exc:
                self.metrics.failed_commits += 1
                self.tracer.record(
                    self.clock.now, trace_kinds.COMMIT, f"FAILED: {exc}"
                )
                return
            self.tracer.record(
                self.clock.now, trace_kinds.COMMIT, message.describe()
            )

        self.schedule(item.at, fire)

    def schedule_workload(self, workload: Workload | Iterable[WorkloadItem]) -> None:
        for item in workload:
            self.schedule_commit(item)

    # ------------------------------------------------------------------
    # time control
    # ------------------------------------------------------------------

    def next_event_time(self) -> float | None:
        return self._events[0][0] if self._events else None

    def advance_to(self, instant: float) -> None:
        """Move the clock to ``instant``, firing due events in order."""
        while self._events and self._events[0][0] <= instant:
            at, _seq, action, _owner = heapq.heappop(self._events)
            self.clock.advance_to(max(at, self.clock.now))
            action()
        self.clock.advance_to(instant)

    def advance_by(self, duration: float) -> None:
        self.advance_to(self.clock.now + duration)

    def advance_to_next_event(self) -> bool:
        """Fire the earliest pending event batch; False if none pending."""
        if not self._events:
            return False
        self.advance_to(self._events[0][0])
        return True

    # ------------------------------------------------------------------
    # effect interpretation
    # ------------------------------------------------------------------

    def perform(self, effect: Effect) -> object:
        """Execute one effect, charging metrics and advancing time.

        :class:`~repro.sources.errors.BrokenQueryError` raised by a query
        propagates to the caller (who typically throws it into the
        maintenance generator).
        """
        if isinstance(effect, Delay):
            self.metrics.charge(effect.kind, effect.duration)
            self.advance_by(effect.duration)
            return None
        if isinstance(effect, Checkpoint):
            return self.clock.now
        if isinstance(effect, SourceQuery):
            return self._perform_query(effect)
        raise TypeError(f"unknown effect {effect!r}")

    def _perform_query(self, effect: SourceQuery) -> QueryAnswer:
        """One logical maintenance query: attempt + retry under faults.

        Transient failures (injected by a
        :class:`~repro.faults.injector.FaultInjector`, or raised by any
        custom source) are retried under the engine's
        :class:`~repro.faults.retry.RetryPolicy`; every attempt re-pays
        the request round trip and every backoff sleep is charged to the
        virtual clock, so faulty runs honestly cost more.  Exhausted
        retries raise :class:`~repro.sources.errors
        .SourceUnavailableError` — deliberately *not* a
        :class:`BrokenQueryError`, so in-exec detection never mistakes
        an outage for a broken-query anomaly.
        """
        served = self.serve_local(effect)
        if served is not None:
            answer, serve_cost = served
            self.metrics.charge(effect.kind, serve_cost)
            self.advance_by(serve_cost)
            return answer
        state = RetryState(self, effect)
        while True:
            try:
                return self._attempt_query(effect)
            except TransientSourceError as exc:
                elapsed = getattr(exc, "elapsed", 0.0)
                if elapsed > 0:
                    # A timeout is not free: the view manager waited.
                    self.metrics.charge(effect.kind, elapsed)
                    self.advance_by(elapsed)
                self.tracer.record(
                    self.clock.now, trace_kinds.FAULT, str(exc)
                )
                pause = state.on_transient(exc, self.clock.now)
                self.advance_by(pause)

    # -- query-path building blocks (shared with the parallel workers) --

    def serve_local(
        self, effect: SourceQuery
    ) -> "tuple[QueryAnswer, float] | None":
        """Answer ``effect`` from the local tier, or ``None`` to ship it.

        The one resolve-and-serve path of both schedulers: walks the
        armed stores in order (aux, then cache) and returns the answer
        and its virtual serve cost; the *caller* charges
        the cost and resumes the process (blocking on the serial path,
        per worker on the parallel one).  A store that finds a schema
        change in its entry's version gap drops the entry and misses
        (Theorem 1), so the probe falls through to the wire where
        in-exec detection sees it.

        The answer is pinned at the *entry* instant — a hit is rolled
        forward through every commit ``<= now``, so it equals what a
        zero-latency round trip would have returned — and the (tiny)
        serve cost is charged only after, exactly like the transfer
        window of a real trip: commits firing during the charge have
        ``committed_at > answered_at`` and are correctly neither in
        the answer nor compensated.
        """
        if not effect.cacheable:
            return None
        for store in self.local_stores:
            hit = store.serve(self.sources[effect.source_name], effect.query)
            if hit is not None:
                break
        else:
            return None
        answered_at = self.clock.now
        self.tracer.record(
            answered_at,
            trace_kinds.QUERY,
            f"{effect.source_name} -> {len(hit.table)} tuples "
            f"({hit.tier}, {hit.rows} rolled forward)",
        )
        price = (
            self.cost_model.aux_serve
            if hit.tier == "aux"
            else self.cost_model.cache_serve
        )
        return QueryAnswer(hit.table, answered_at), price(hit.rows)

    def query_request_cost(self, effect: SourceQuery) -> float:
        """Virtual cost of shipping+executing the request at the source
        (everything before the answer exists)."""
        query = effect.query
        probe_values = _probe_value_count(query)
        if probe_values is not None:
            return self.cost_model.query_base + (
                probe_values * self.cost_model.query_per_probe_value
            )
        scanned = _scanned_tuples(self.sources[effect.source_name], query)
        return self.cost_model.query_base + (
            scanned * self.cost_model.query_per_scanned_tuple
        )

    def evaluate_query(self, effect: SourceQuery) -> Table:
        """Evaluate against the source's *current* state — the caller
        must have advanced the clock to the answer instant first.  May
        raise BrokenQueryError / TransientSourceError."""
        source = self.sources[effect.source_name]
        result = source.execute(effect.query)
        if self.selfmaint is not None:
            # Travelling full scans (view adaptation's reads — never
            # cacheable, so they always reach this point) re-seed any
            # aux replica a schema change invalidated, for free.
            self.selfmaint.observe(source, effect.query, result)
        if self.snapshot_cache is not None and effect.cacheable:
            # Stamp with the version at the evaluation instant: the
            # answer reflects exactly the commits in log[:version].
            self.snapshot_cache.store(
                source, effect.query, result, source.commit_version
            )
        self.tracer.record(
            self.clock.now,
            trace_kinds.QUERY,
            f"{effect.source_name} -> {len(result)} tuples",
        )
        return result

    def transfer_cost(self, result: Table) -> float:
        return len(result) * self.cost_model.query_per_result_tuple

    def _attempt_query(self, effect: SourceQuery) -> QueryAnswer:
        # The request/execution window: autonomous commits inside it are
        # visible to (or break) the query.
        self.metrics.source_round_trips += 1
        request_cost = self.query_request_cost(effect)
        self.metrics.charge(effect.kind, request_cost)
        self.advance_by(request_cost)
        answered_at = self.clock.now
        result = self.evaluate_query(effect)  # may raise BrokenQueryError
        transfer = self.transfer_cost(result)
        self.metrics.charge(effect.kind, transfer)
        self.advance_by(transfer)
        return QueryAnswer(result, answered_at)

    # ------------------------------------------------------------------
    # driving maintenance generators
    # ------------------------------------------------------------------

    def run_process(self, process: MaintenanceProcess) -> object:
        """Drive a maintenance generator to completion.

        Broken queries are thrown *into* the generator so the algorithm
        can handle them (abort, flag, compensate); an unhandled
        BrokenQueryError propagates to the caller.
        """
        try:
            effect = next(process)
        except StopIteration as stop:
            return stop.value
        while True:
            try:
                result = self.perform(effect)
            except BrokenQueryError as exc:
                self.metrics.broken_queries += 1
                self.tracer.record(
                    self.clock.now, trace_kinds.BROKEN, str(exc)
                )
                try:
                    effect = process.throw(exc)
                except StopIteration as stop:
                    return stop.value
                continue
            try:
                effect = process.send(result)
            except StopIteration as stop:
                return stop.value


class RetryState:
    """The retry decision core of one logical maintenance query.

    Shared by the serial blocking path (:meth:`SimEngine._perform_query`)
    and the parallel workers' non-blocking query state machine, so both
    burn the same budget, observe the same per-query deadline (anchored
    at the first attempt), and charge the same backoff costs.  The caller
    owns the clock: it charges any timeout wait (``exc.elapsed``) before
    calling, and sleeps the returned pause after.
    """

    def __init__(self, engine: SimEngine, effect: SourceQuery) -> None:
        self._engine = engine
        self._effect = effect
        self._policy = engine.retry_policy
        self._deadline = (
            engine.clock.now + self._policy.deadline
            if self._policy is not None and self._policy.deadline > 0
            else None
        )
        self.failures = 0

    def on_transient(self, exc: Exception, now: float) -> float:
        """Account one transient failure at instant ``now``; return the
        backoff pause before the next attempt, or raise
        :class:`~repro.sources.errors.SourceUnavailableError` when the
        retry budget or the per-query deadline is exhausted."""
        engine = self._engine
        effect = self._effect
        policy = self._policy
        self.failures += 1
        engine.metrics.transient_failures += 1
        if policy is None or self.failures >= policy.max_attempts:
            engine.metrics.exhausted_queries += 1
            raise SourceUnavailableError(
                effect.source_name,
                self.failures,
                "retry budget exhausted",
                last_error=exc,
            ) from exc
        pause = engine.cost_model.retry_pause(
            policy.backoff(self.failures, salt=effect.source_name)
        )
        if self._deadline is not None and now + pause > self._deadline:
            engine.metrics.exhausted_queries += 1
            raise SourceUnavailableError(
                effect.source_name,
                self.failures,
                f"per-query deadline ({policy.deadline:g}s) exceeded",
                last_error=exc,
            ) from exc
        engine.metrics.retries += 1
        engine.metrics.backoff_time += pause
        engine.metrics.charge("retry_backoff", pause)
        engine.tracer.record(
            now,
            trace_kinds.RETRY,
            f"{effect.source_name}: attempt {self.failures + 1} "
            f"after {pause:.3f}s backoff",
        )
        return pause


def _probe_value_count(query: SPJQuery) -> int | None:
    """Total IN-list size if the query is probe-style, else ``None``."""
    predicates = []
    selection = query.selection
    if isinstance(selection, Conjunction):
        predicates = list(selection.children)
    else:
        predicates = [selection]
    sizes = [
        len(predicate.values)
        for predicate in predicates
        if isinstance(predicate, InPredicate)
    ]
    if not sizes:
        return None
    return sum(sizes)


def _scanned_tuples(source: DataSource, query: SPJQuery) -> int:
    """Rows the source must scan for a non-probe query (current state)."""
    scanned = 0
    for ref in query.relations:
        if ref.source == source.name and source.has_relation(ref.relation):
            scanned += source.row_count(ref.relation)
    return scanned
