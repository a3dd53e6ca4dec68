"""The view manager (Figure 3).

Owns the materialized view, the UMQ, the synchronizer and the
connections to the sources, and builds one *maintenance process*
(a generator of effects) per maintenance unit:

* a data-update unit runs the probe sweep of
  :mod:`repro.maintenance.vm` and refreshes the view with the resulting
  delta;
* a unit containing schema changes runs VS per combined change and then
  view adaptation, installing the rewritten definition and rebuilt
  extent atomically at the end (so an abort mid-way leaves both the
  definition and the extent untouched — "this abort is just to discard
  any temporary query results");
* a batch unit's data updates are folded into the adaptation scans
  automatically (they are already committed at the sources and are not
  compensated away, because they are not *behind* the unit).

The Dyno scheduler (:mod:`repro.core.scheduler`) drives these processes
and decides their order.
"""

from __future__ import annotations

from ..relational.delta import Delta
from ..relational.executor import execute
from ..relational.schema import RelationSchema
from ..relational.table import Table
from ..sim.costs import CostModel
from ..sim.effects import Delay
from ..sim.engine import MaintenanceProcess, SimEngine
from ..sim.metrics import Metrics
from ..sources.messages import SchemaChange
from ..sources.mkb import MetaKnowledgeBase
from ..sources.source import DataSource
from ..sources.wrapper import Wrapper
from ..maintenance.batch import (
    combine_schema_changes,
    data_updates_of,
    schema_changes_of,
)
from ..maintenance.compensation import CompensationLog
from ..maintenance.grouping import coalesce_data_updates
from ..maintenance.history import SchemaHistory
from ..maintenance.va import adapt_view
from ..maintenance.vm import maintain_data_update
from ..maintenance.vs import ViewSynchronizationError, ViewSynchronizer
from .definition import ViewDefinition
from .materialized import MaterializedView
from .umq import COMMIT_EPSILON, MaintenanceUnit, UpdateMessageQueue


from dataclasses import dataclass


@dataclass
class MaintenanceOutcome:
    """The computed-but-uninstalled effect of one maintenance unit.

    Exactly one of these shapes applies:

    * ``delta`` set — a data-update refresh (apply to the extent);
    * ``definition`` + ``extent`` set — a schema-change adaptation
      (install the rewritten definition and the rebuilt extent);
    * all ``None`` — the unit did not affect this view.

    ``applied_changes`` carries the unit's (combined) schema changes so
    installation can record them in the manager's
    :class:`~repro.maintenance.history.SchemaHistory`.
    """

    delta: Delta | None = None
    definition: ViewDefinition | None = None
    extent: Table | None = None
    applied_changes: list = None  # list[(source, SchemaChange)] | None


def filtered_sink(umq: UpdateMessageQueue, message_filter, metrics: Metrics):
    """Wrapper sink delivering into ``umq`` through an optional filter.

    With ``message_filter=None`` this is exactly ``umq.receive``; with a
    predicate, messages the filter rejects are not enqueued (the source
    commit itself is untouched — filtering is a delivery concern, so
    maintenance queries still observe full source state).  The filter
    must be pure up to idempotent effects: crash recovery asks it again
    about every unresolved log message.  So a routed delivery is counted
    here (``metrics.router_delivered`` / ``router_dropped``), once per
    commit that reaches the sink, never in the predicate (a delivery a
    crash purged in flight re-enters past the sink, uncounted)."""
    if message_filter is None:
        return umq.receive

    def sink(message) -> None:
        if message_filter(message):
            metrics.router_delivered += 1
            umq.receive(message)
        else:
            metrics.router_dropped += 1

    return sink


def install_write_ahead(
    manager, outcomes: list, unit: MaintenanceUnit
) -> None:
    """Install one prepared outcome per view of ``manager`` atomically.

    Write-ahead rule: with a maintenance journal armed, one entry covering
    the whole unit across every view hits the sink *before* any extent
    is touched, so a crash at any point here is recoverable (either the
    entry is absent and the unit re-runs, or it is present and replay
    re-applies every recorded effect)."""
    engine = manager.engine
    engine.crash_point("install.pre_journal")
    if manager.journal is not None:
        manager.journal.record_install(unit, outcomes)
        engine.crash_point("install.post_journal")
    views = manager.view_managers()
    for index, (view, outcome) in enumerate(zip(views, outcomes)):
        view.apply_outcome(
            outcome, counted_updates=len(unit) if index == 0 else 0
        )
    engine.record_install(
        {view.view.name: len(view.mv.extent) for view in views},
        tuple((m.source, m.seqno, m.committed_at) for m in unit.messages),
    )
    engine.crash_point("install.post_apply")


class ViewManager:
    """Maintains one materialized view over autonomous sources."""

    def __init__(
        self,
        engine: SimEngine,
        view: ViewDefinition,
        mkb: MetaKnowledgeBase | None = None,
        umq: UpdateMessageQueue | None = None,
        attach_wrappers: bool = True,
        initial_extent: "Table | None" = None,
        message_filter=None,
    ) -> None:
        """``umq``/``attach_wrappers`` let several managers share one
        queue (see :class:`~repro.views.multi.MultiViewManager`).

        ``initial_extent`` is the crash-recovery restore path: the
        extent is installed verbatim (no ``result_schema`` resolution
        against live sources — the definition may reference renamed
        relations — and no initial load).

        ``message_filter`` (``Callable[[UpdateMessage], bool] | None``)
        sits between the wrappers and the UMQ: a message is enqueued
        only when the filter accepts it.  Shard routers use this to
        deliver each shard only the slice of the committed stream its
        registered views reference (see :func:`filtered_sink`)."""
        self.engine = engine
        self.view = view
        #: write-ahead maintenance journal (armed by a RecoveryHarness)
        self.journal = None
        # NOTE: ``umq or ...`` would discard a shared-but-empty queue
        # (UpdateMessageQueue defines __len__), hence the identity test.
        self.umq = umq if umq is not None else UpdateMessageQueue()
        self.mkb = mkb or MetaKnowledgeBase()
        self.synchronizer = ViewSynchronizer(
            self.mkb, schema_lookup=self._schema_lookup
        )
        self.compensation_log = CompensationLog()
        self.schema_history = SchemaHistory()
        self._sink = filtered_sink(self.umq, message_filter, engine.metrics)
        self.wrappers: list[Wrapper] = []
        if attach_wrappers:
            for source in engine.sources.values():
                self.wrappers.append(
                    Wrapper(source, self._sink, engine=engine)
                )
        if initial_extent is not None:
            self.mv = MaterializedView(view.name, initial_extent.schema)
            self.mv.replace_extent(initial_extent, view.version)
            self.mv.refresh_count = 0
        else:
            self.mv = MaterializedView(
                view.name, view.result_schema(engine.sources)
            )
            self.initial_load()

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    @property
    def cost(self) -> CostModel:
        return self.engine.cost_model

    @property
    def metrics(self) -> Metrics:
        return self.engine.metrics

    def view_managers(self) -> "list[ViewManager]":
        """The per-view managers of this stack (same call on
        :class:`~repro.views.multi.MultiViewManager`)."""
        return [self]

    def install_self_maintenance(self):
        """Arm the auxiliary store and register this view's coverage
        requirements.  Like the snapshot cache, the store lives on the
        engine (:meth:`~repro.sim.engine.SimEngine
        .install_self_maintenance`), so every view manager sharing the
        engine shares one set of replicas."""
        store = self.engine.install_self_maintenance()
        store.register_view(self.view.query)
        return store

    def _schema_lookup(
        self, source: str, relation: str
    ) -> RelationSchema | None:
        owner = self.engine.sources.get(source)
        if owner is None or not owner.has_relation(relation):
            return None
        return owner.schema_of(relation)

    def connect(self, source: DataSource) -> None:
        """Attach a source that joined after construction."""
        self.engine.add_source(source)
        self.wrappers.append(
            Wrapper(source, self._sink, engine=self.engine)
        )

    def _in_flight_messages(self) -> list:
        """Committed-but-undelivered messages across all wrappers.

        Link faults (and wrapper latency) open a window where an update
        is committed at its source — and therefore visible to
        maintenance queries — but not yet in the UMQ.  Compensation must
        see those messages as *behind* every unit, or the duplication
        anomaly of Example 1.a reappears under transmission delay.
        """
        pending: list = []
        for wrapper in self.wrappers:
            pending.extend(wrapper.pending_messages())
        return pending

    # ------------------------------------------------------------------
    # the scheduler protocol (shared with MultiViewManager)
    # ------------------------------------------------------------------

    @property
    def maintenance_queries(self) -> tuple:
        """The view queries dependency detection must consider."""
        return (self.view.query,)

    @property
    def detection_epoch(self) -> tuple:
        """Version key for cached detection metadata.

        Bumps whenever a committed (or speculatively installed) schema
        rewrite changes the view definition; cached maintenance
        footprints are valid only within one epoch.
        """
        return (self.view.version,)

    def speculative_queries(self, message) -> tuple:
        """What the view queries would look like after this schema
        change — asked without committing: VS is pure but for a relation
        replacement's live-schema reads (``ViewSynchronizer.consults``).
        Only VS's own "cannot repair" means "no rewrite"; any other
        error is a bug and propagates."""
        try:
            result = self.synchronizer.synchronize(self.view, message)
        except ViewSynchronizationError:
            return (self.view.query,)
        return (result.definition.query,)

    # ------------------------------------------------------------------
    # initial load and oracle recompute
    # ------------------------------------------------------------------

    def _direct_tables(self, view: ViewDefinition) -> dict[str, Table]:
        tables: dict[str, Table] = {}
        for ref in view.query.relations:
            source = self.engine.sources[ref.source]
            tables[ref.alias] = source.catalog.table(ref.relation)
        return tables

    def initial_load(self) -> None:
        """Populate the extent from the current source states (free)."""
        extent = execute(self.view.query, self._direct_tables(self.view))
        self.mv.replace_extent(extent, self.view.version)
        self.mv.refresh_count = 0

    def recompute_reference(self) -> Table:
        """Oracle: what the extent *should* be right now (zero cost)."""
        return execute(self.view.query, self._direct_tables(self.view))

    # ------------------------------------------------------------------
    # maintenance process construction
    # ------------------------------------------------------------------

    def build_maintenance(
        self, unit: MaintenanceUnit, pending_feed=None
    ) -> MaintenanceProcess:
        """The maintenance process for one unit (Definition 1).

        The process is *compute then install*: all source queries and
        compensation happen first, the materialized view and the view
        definition are only written at the very end (``w(MV) c(MV)``) —
        an abort mid-way leaves both untouched.

        ``pending_feed`` (zero-argument callable) overrides where
        compensation finds the messages pending *behind* this unit: the
        parallel executor removes a unit from the UMQ at dispatch, so
        the queue no longer answers for it — the executor supplies the
        dispatch-time snapshot plus later arrivals instead.
        """
        outcome = yield from self.compute_unit(unit, pending_feed)
        self.install_unit(outcome, unit)
        return outcome

    def compute_unit(
        self, unit: MaintenanceUnit, pending_feed=None
    ) -> MaintenanceProcess:
        """Manager-agnostic compute seam (same protocol as
        :meth:`~repro.views.multi.MultiViewManager.compute_unit`): the
        parallel executor drives this generator, holds the returned
        prepared outcome, and calls :meth:`install_unit` only when the
        unit's turn comes in dispatch order."""
        return self.compute_maintenance(unit, pending_feed)

    def install_unit(self, prepared, unit: MaintenanceUnit) -> None:
        """Install a prepared outcome from :meth:`compute_unit`
        (:func:`install_write_ahead`)."""
        install_write_ahead(self, [prepared], unit)

    def compute_maintenance(
        self, unit: MaintenanceUnit, pending_feed=None
    ) -> MaintenanceProcess:
        """Compute (but do not install) the effect of one unit.

        Returns a :class:`MaintenanceOutcome`; multi-view deployments
        compute outcomes for every view before installing any of them,
        preserving unit atomicity across views.
        """
        if unit.has_schema_change:
            outcome = yield from self._compute_schema_unit(
                unit, pending_feed
            )
        else:
            outcome = yield from self._compute_data_unit(
                unit, pending_feed=pending_feed
            )
        return outcome

    def apply_outcome(
        self, outcome: "MaintenanceOutcome", counted_updates: int
    ) -> None:
        """Install a computed outcome (``w(MV) c(MV)``)."""
        if outcome.applied_changes:
            for source, change in outcome.applied_changes:
                self.schema_history.record(source, change)
        if outcome.extent is not None and outcome.definition is not None:
            self.view = outcome.definition
            self.mv.replace_extent(outcome.extent, outcome.definition.version)
            self.metrics.view_refreshes += 1
            if self.engine.selfmaint is not None:
                # The rewritten definition may need different columns
                # (or relations under new names); re-register so future
                # probes are judged against the *current* requirements.
                self.engine.selfmaint.register_view(outcome.definition.query)
        elif outcome.delta is not None and not outcome.delta.is_empty():
            self.mv.apply(outcome.delta)
            self.metrics.view_refreshes += 1
            self.metrics.view_delta_tuples += outcome.delta.net_size()
        self.metrics.maintained_updates += counted_updates

    def _compute_data_unit(
        self,
        unit: MaintenanceUnit,
        anchor: MaintenanceUnit | None = None,
        pending_feed=None,
    ) -> MaintenanceProcess:
        """M(DU) for a unit of one or more data updates.

        ``anchor`` is the unit actually sitting at the head of the UMQ;
        it differs from ``unit`` when a batch's data updates are split
        out for sequential VM (the anchor stays the batch).
        """
        anchor = anchor or unit
        translate = self.schema_history.translate_message
        messages = [
            translated
            for m in unit.messages
            if m.is_data_update
            for translated in [translate(m)]
            if translated is not None
        ]
        # Batch preprocessing (Section 5, voluntary flavour): merge
        # same-relation deltas so the batch pays one probe sweep per
        # touched relation.  Exact — see grouping.coalesce_data_updates.
        messages = coalesce_data_updates(messages)
        total: Delta | None = None
        for index, message in enumerate(messages):
            sub_unit = MaintenanceUnit([message])
            # Compensation must treat later in-unit updates as pending.
            process = maintain_data_update(
                self.view,
                sub_unit,
                _UMQView(
                    self, anchor, messages[index + 1 :], pending_feed
                ),
                self.compensation_log,
            )
            delta = yield from process
            if delta is None or delta.is_empty():
                continue
            if total is None:
                total = delta
            else:
                total.merge(delta)
        if total is not None and not total.is_empty():
            yield Delay(self.cost.refresh(total.net_size()), "refresh")
        return MaintenanceOutcome(delta=total)

    def _compute_schema_unit(
        self, unit: MaintenanceUnit, pending_feed=None
    ) -> MaintenanceProcess:
        """M(SC) / batch maintenance: VS per combined change, then VA.

        The rewritten definition is kept local (``w(VD)`` is in-memory,
        footnote 1); it is installed together with the adapted extent in
        the final ``w(MV) c(MV)`` step.
        """
        combined = combine_schema_changes(schema_changes_of(unit))
        candidate = self.view
        effective_changes = 0
        for source, change in combined:
            assert isinstance(change, SchemaChange)
            yield Delay(self.cost.vs_rewrite, "vs_rewrite")
            result = self.synchronizer.synchronize_change(
                candidate, source, change
            )
            candidate = result.definition
            if result.report.changed:
                effective_changes += 1

        if effective_changes == 0:
            # No schema change touched the view.  Any batched data
            # updates still need ordinary VM against the unchanged
            # definition.
            data_updates = data_updates_of(unit)
            if data_updates:
                outcome = yield from self._compute_data_unit(
                    MaintenanceUnit(data_updates),
                    anchor=unit,
                    pending_feed=pending_feed,
                )
                outcome.applied_changes = list(combined)
                return outcome
            return MaintenanceOutcome(applied_changes=list(combined))

        if self.engine.selfmaint is not None:
            # Register the candidate's requirements *before* adaptation:
            # its full-relation scans travel (never cacheable) and their
            # answers re-seed any replica the schema change invalidated.
            # Speculative registration is harmless — a rename keys a new
            # replica slot, a widening merely drops a too-narrow replica.
            self.engine.selfmaint.register_view(candidate.query)
        extent = yield from adapt_view(
            candidate,
            unit,
            _UMQView(self, unit, [], pending_feed),
            self.cost,
            rounds=effective_changes,
            log=self.compensation_log,
        )
        assert isinstance(extent, Table)
        return MaintenanceOutcome(
            definition=candidate,
            extent=extent,
            applied_changes=list(combined),
        )


class _UMQView:
    """What compensation may ask the UMQ while one unit is maintained.

    One question, :meth:`leaked`: which committed-but-unmaintained data
    updates are in this probe answer?  Four feeds can hold one; they are
    asked, and compensation nets them, in this order:

    * the *in-unit extras* — when a batch's data updates are maintained
      sequentially, updates later within the same unit are pending
      exactly like queued updates behind it;
    * the *queue* behind the unit, through its ``(source, relation)``
      buckets (:meth:`~repro.views.umq.UpdateMessageQueue
      .data_updates_behind`), in queue order; or,
    * for a unit the parallel executor took off the queue at dispatch,
      the worker's live ``pending_feed`` overlay in the queue's place;
    * the wrappers' *in-flight* messages, committed but not delivered.

    An update matches by the name it committed under: the manager's
    schema history says which past names are the probed relation today
    (a dropped relation's updates match nothing).  Only the matches that
    had committed when the answer was evaluated are then translated to
    the current names and layout — once per message and installed
    schema change (:meth:`~repro.maintenance.history.SchemaHistory
    .translate_message`), not once per answer, and not at all while
    nothing was recorded — so compensation evaluates current-name probes
    over them.
    """

    def __init__(
        self, manager: "ViewManager", unit, extra, pending_feed=None
    ) -> None:
        self._manager = manager
        self._unit = unit
        self._extra = list(extra)
        #: parallel executor's override: the unit left the real queue at
        #: dispatch, so the executor supplies its pending overlay
        self._pending_feed = pending_feed

    def leaked(
        self, _sub_unit, source: str, relation: str, answered_at: float
    ) -> list:
        manager = self._manager
        history = manager.schema_history
        names = history.committed_names(source, relation)
        cutoff = answered_at + COMMIT_EPSILON

        def matching(messages) -> list:
            return [
                message
                for message in messages
                if message.committed_at <= cutoff
                and message.is_data_update
                and message.source == source
                and message.payload.relation in names
            ]

        leaked = matching(self._extra)
        if self._pending_feed is not None:
            leaked += matching(self._pending_feed())
        else:
            # A bucket holds this source's data updates under ``names``.
            leaked += [
                message
                for message in manager.umq.data_updates_behind(
                    self._unit, source, names
                )
                if message.committed_at <= cutoff
            ]
        leaked += matching(manager._in_flight_messages())
        if history.is_empty():
            return leaked
        return list(map(history.translate_message, leaked))
