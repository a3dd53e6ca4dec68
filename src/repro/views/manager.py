"""One view's state and maintenance work (the view manager of Figure 3).

A :class:`ViewManager` owns one materialized view, its synchronizer,
compensation log and schema history, and computes one *maintenance
process* (a generator of effects) per maintenance unit:

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

The stack that owns it (:class:`~repro.views.multi.MultiViewManager`)
holds the UMQ, the wrappers and the journal, and installs every view's
outcome of a unit together; the Dyno scheduler
(:mod:`repro.core.scheduler`) drives the stack and decides the order.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .umq import COMMIT_EPSILON, MaintenanceUnit


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


def _driven_by_the_stack(*_args, **_kwargs):
    raise TypeError(
        "a ViewManager holds one view's state and work; units are "
        "maintained through its stack (repro.views.multi.MultiViewManager)"
    )


class ViewManager:
    """One materialized view: its definition, extent, synchronizer,
    compensation log and schema history, and the work of maintaining
    it.  The stack that owns it (:class:`~repro.views.multi
    .MultiViewManager`) holds the UMQ, the wrappers and the journal."""

    def __init__(
        self,
        engine: SimEngine,
        view: ViewDefinition,
        mkb: MetaKnowledgeBase | None = None,
        initial_extent: "Table | None" = None,
    ) -> None:
        """``initial_extent`` is the crash-recovery restore path: the
        extent is installed verbatim (no ``result_schema`` resolution
        against live sources — the definition may reference renamed
        relations — and no initial load)."""
        self.engine = engine
        self.view = view
        self.synchronizer = ViewSynchronizer(
            mkb, schema_lookup=self._schema_lookup
        )
        self.compensation_log = CompensationLog()
        self.schema_history = SchemaHistory()
        if initial_extent is not None:
            self.mv = MaterializedView(view.name, initial_extent.schema)
            self.mv.replace_extent(initial_extent, view.version)
            self.mv.refresh_count = 0
        else:
            self.mv = MaterializedView(
                view.name, view.result_schema(engine.sources)
            )
            self.initial_load()

    #: placeholders for the benchmark spine's tracer, which pins these
    #: names through ``vars(ViewManager)`` (ROADMAP 12(e))
    build_maintenance = compute_unit = install_unit = _driven_by_the_stack

    @property
    def cost(self) -> CostModel:
        return self.engine.cost_model

    @property
    def metrics(self) -> Metrics:
        return self.engine.metrics

    def _schema_lookup(
        self, source: str, relation: str
    ) -> RelationSchema | None:
        owner = self.engine.sources.get(source)
        if owner is None or not owner.has_relation(relation):
            return None
        return owner.schema_of(relation)

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
        tables = self._direct_tables(self.view)
        extent = execute(self.view.query, tables, self.engine.plans)
        self.mv.replace_extent(extent, self.view.version)
        self.mv.refresh_count = 0

    def recompute_reference(self) -> Table:
        """Oracle: what the extent *should* be right now (zero cost,
        outside the world's plan cache: a check counts nothing)."""
        return execute(self.view.query, self._direct_tables(self.view))

    # ------------------------------------------------------------------
    # maintenance: compute, then install
    # ------------------------------------------------------------------

    def compute_maintenance(
        self, unit: MaintenanceUnit, stack, pending_feed=None
    ) -> MaintenanceProcess:
        """Compute (but do not install) the effect of one unit.

        Returns a :class:`MaintenanceOutcome`.  ``stack`` is the owning
        :class:`~repro.views.multi.MultiViewManager`: compensation asks
        its queue and its wrappers what is pending behind ``unit``
        (:class:`_UMQView`), unless ``pending_feed`` (zero-argument
        callable) answers for the queue — the parallel executor removes
        a unit from the UMQ at dispatch and supplies the dispatch-time
        snapshot plus later arrivals instead.
        """
        if unit.has_schema_change:
            outcome = yield from self._compute_schema_unit(
                unit, stack, pending_feed
            )
        else:
            outcome = yield from self._compute_data_unit(
                unit, stack, pending_feed=pending_feed
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
        stack,
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
                    stack,
                    self.schema_history,
                    anchor,
                    messages[index + 1 :],
                    pending_feed,
                ),
                self.compensation_log,
                self.engine.plans,
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
        self, unit: MaintenanceUnit, stack, pending_feed=None
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
                    stack,
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
            _UMQView(stack, self.schema_history, unit, [], pending_feed),
            self.cost,
            rounds=effective_changes,
            log=self.compensation_log,
            plans=self.engine.plans,
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

    The queue and the in-flight messages are the stack's
    (``stack.umq``, ``stack.in_flight_messages()``).  An update matches
    by the name it committed under: the view's schema history says which
    past names are the probed relation today (a dropped relation's
    updates match nothing).  Only the matches that
    had committed when the answer was evaluated are then translated to
    the current names and layout — once per message and installed
    schema change (:meth:`~repro.maintenance.history.SchemaHistory
    .translate_message`), not once per answer, and not at all while
    nothing was recorded — so compensation evaluates current-name probes
    over them.
    """

    def __init__(
        self, stack, history: SchemaHistory, unit, extra, pending_feed=None
    ) -> None:
        self._stack = stack
        self._history = history
        self._unit = unit
        self._extra = list(extra)
        #: parallel executor's override: the unit left the real queue at
        #: dispatch, so the executor supplies its pending overlay
        self._pending_feed = pending_feed

    def leaked(
        self, _sub_unit, source: str, relation: str, answered_at: float
    ) -> list:
        history = self._history
        # While nothing was recorded, a relation has only its own name
        # and no message needs translating.
        plain = history.is_empty()
        names = (
            (relation,) if plain else history.committed_names(source, relation)
        )
        cutoff = answered_at + COMMIT_EPSILON
        if self._pending_feed is None:
            # A bucket holds this source's data updates under ``names``.
            leaked = self._stack.umq.data_updates_behind(
                self._unit, source, names, cutoff
            )
        else:
            leaked = _matching(self._pending_feed(), source, names, cutoff)
        if self._extra:
            leaked = _matching(self._extra, source, names, cutoff) + leaked
        in_flight = self._stack.in_flight_messages()
        if in_flight:
            leaked += _matching(in_flight, source, names, cutoff)
        if plain:
            return leaked
        return list(map(history.translate_message, leaked))


def _matching(messages, source: str, names, cutoff: float) -> list:
    """The data updates of ``messages`` that ``source`` committed under
    one of ``names`` no later than ``cutoff``."""
    return [
        message
        for message in messages
        if message.committed_at <= cutoff
        and message.is_data_update
        and message.source == source
        and message.payload.relation in names
    ]
