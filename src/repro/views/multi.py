"""The warehouse stack: one or more materialized views over one update
stream.

The paper's Figure 3 has one view manager over one UMQ, and its
conclusion notes Dyno "is a general strategy ... and thus has the
potential to be plugged into any view system".  A
:class:`MultiViewManager` is that stack for any number of views: it
owns the UMQ, the wrappers and their (optionally filtered) sink and the
journal, and one :class:`~repro.views.manager.ViewManager` per view;
one Dyno scheduler drives it.

Semantics:

* dependency detection considers the union of all views' maintenance
  footprints (a schema change conflicting with *any* view must be
  ordered first);
* one maintenance unit is maintained for every view **atomically**: all
  per-view outcomes are computed first (any broken query aborts the
  whole unit before anything is written), then installed together — the
  multi-view generalization of ``w(MV) c(MV)``.
"""

from __future__ import annotations

from ..relational.query import SPJQuery
from ..relational.table import Table
from ..sim.costs import CostModel
from ..sim.engine import MaintenanceProcess, SimEngine
from ..sim.metrics import Metrics
from ..sources.messages import UpdateMessage
from ..sources.mkb import MetaKnowledgeBase
from ..sources.source import DataSource
from ..sources.wrapper import Wrapper
from .definition import ViewDefinition
from .manager import MaintenanceOutcome, ViewManager
from .materialized import MaterializedView
from .umq import MaintenanceUnit, UpdateMessageQueue


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


class MultiViewManager:
    """The stack :class:`~repro.core.scheduler.DynoScheduler` drives:
    ``umq``, ``maintenance_queries``, ``detection_epoch``,
    ``speculative_queries``, ``build_maintenance`` / ``compute_unit`` /
    ``install_unit``, ``cost`` and ``metrics``, over one or more views.
    """

    def __init__(
        self,
        engine: SimEngine,
        views: list[ViewDefinition],
        mkb: MetaKnowledgeBase | None = None,
        initial_extents: "dict | None" = None,
        message_filter=None,
    ) -> None:
        """``initial_extents`` (view name -> Table) is the crash-recovery
        restore path; see :class:`~repro.views.manager.ViewManager`.

        ``message_filter`` (``Callable[[UpdateMessage], bool] | None``)
        sits between the wrappers and the UMQ: a message is enqueued
        only when the filter accepts it.  Shard routers use this to
        deliver each shard only the slice of the committed stream its
        registered views reference (see :func:`filtered_sink`)."""
        if not views:
            raise ValueError("MultiViewManager needs at least one view")
        names = [view.name for view in views]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate view names: {names}")
        self.engine = engine
        #: write-ahead maintenance journal (armed by a RecoveryHarness)
        self.journal = None
        self.umq = UpdateMessageQueue()
        self._sink = filtered_sink(self.umq, message_filter, engine.metrics)
        self.wrappers: list[Wrapper] = [
            Wrapper(source, self._sink, engine=engine)
            for source in engine.sources.values()
        ]
        extents = initial_extents or {}
        self.managers: list[ViewManager] = [
            ViewManager(engine, view, mkb, extents.get(view.name))
            for view in views
        ]

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    @property
    def cost(self) -> CostModel:
        return self.engine.cost_model

    @property
    def metrics(self) -> Metrics:
        return self.engine.metrics

    def view_managers(self) -> list[ViewManager]:
        """The per-view managers of this stack, in definition order."""
        return list(self.managers)

    def manager_for(self, view_name: str) -> ViewManager:
        for manager in self.managers:
            if manager.view.name == view_name:
                return manager
        raise KeyError(view_name)

    def install_self_maintenance(self):
        """Arm the auxiliary store and register every view's coverage
        requirements.  Like the snapshot cache, the store lives on the
        engine (:meth:`~repro.sim.engine.SimEngine
        .install_self_maintenance`): replicas cover the union of all
        views' requirements, so one store serves every sibling."""
        store = self.engine.install_self_maintenance()
        for manager in self.managers:
            store.register_view(manager.view.query)
        return store

    def connect(self, source: DataSource) -> None:
        """Attach a source that joined after construction."""
        self.engine.add_source(source)
        self.wrappers.append(
            Wrapper(source, self._sink, engine=self.engine)
        )

    def in_flight_messages(self) -> list:
        """Committed-but-undelivered messages across all wrappers.

        Link faults (and wrapper latency) open a window where an update
        is committed at its source — and therefore visible to
        maintenance queries — but not yet in the UMQ.  Compensation must
        see those messages as *behind* every unit, or the duplication
        anomaly of Example 1.a reappears under transmission delay.
        """
        return [
            message
            for wrapper in self.wrappers
            for message in wrapper.pending_messages()
        ]

    # ------------------------------------------------------------------
    # one-view reads the benchmark spine makes of its one-view worlds
    # (ROADMAP 12(e)); everything else asks view_managers()
    # ------------------------------------------------------------------

    def _only_view(self) -> ViewManager:
        if len(self.managers) != 1:
            raise TypeError(
                f"{len(self.managers)} views: ask view_managers() or "
                "manager_for(name)"
            )
        return self.managers[0]

    @property
    def mv(self) -> MaterializedView:
        return self._only_view().mv

    def recompute_reference(self) -> Table:
        return self._only_view().recompute_reference()

    # ------------------------------------------------------------------
    # the scheduler protocol
    # ------------------------------------------------------------------

    @property
    def maintenance_queries(self) -> tuple[SPJQuery, ...]:
        """The view queries dependency detection must consider."""
        return tuple(manager.view.query for manager in self.managers)

    @property
    def detection_epoch(self) -> tuple:
        """Version key for cached detection metadata: bumps whenever a
        committed (or speculatively installed) schema rewrite changes a
        view definition; cached maintenance footprints are valid only
        within one epoch."""
        return tuple(manager.view.version for manager in self.managers)

    def speculative_queries(
        self, message: UpdateMessage
    ) -> tuple[SPJQuery, ...]:
        queries: list[SPJQuery] = []
        for manager in self.managers:
            queries.extend(manager.speculative_queries(message))
        return tuple(queries)

    def build_maintenance(
        self, unit: MaintenanceUnit, pending_feed=None
    ) -> MaintenanceProcess:
        """The maintenance process for one unit (Definition 1), for
        every view atomically.

        Compute-then-install: all source queries and compensation
        happen first, the extents and definitions are only written at
        the very end (``w(MV) c(MV)``) — a broken query during any
        view's compute phase aborts the whole unit with no view touched;
        the update is counted as maintained exactly once.
        """
        outcomes = yield from self.compute_unit(unit, pending_feed)
        self.install_unit(outcomes, unit)
        return outcomes

    def compute_unit(
        self, unit: MaintenanceUnit, pending_feed=None
    ) -> MaintenanceProcess:
        """Compute (but do not install) one unit's effect on every view:
        the parallel executor drives this generator, holds the returned
        outcomes, and calls :meth:`install_unit` only when the unit's
        turn comes in dispatch order."""
        outcomes: list[MaintenanceOutcome] = []
        for manager in self.managers:
            outcome = yield from manager.compute_maintenance(
                unit, self, pending_feed
            )
            outcomes.append(outcome)
        return outcomes

    def install_unit(
        self, prepared: list[MaintenanceOutcome], unit: MaintenanceUnit
    ) -> None:
        """Install every view's prepared outcome atomically.

        Write-ahead rule: with a maintenance journal armed, one entry
        covering the whole unit across every view hits the sink *before*
        any extent is touched, so a crash at any point here is
        recoverable (either the entry is absent and the unit re-runs, or
        it is present and replay re-applies every recorded effect)."""
        engine = self.engine
        engine.crash_point("install.pre_journal")
        if self.journal is not None:
            self.journal.record_install(unit, prepared)
            engine.crash_point("install.post_journal")
        for index, (manager, outcome) in enumerate(
            zip(self.managers, prepared)
        ):
            manager.apply_outcome(
                outcome, counted_updates=len(unit) if index == 0 else 0
            )
        engine.record_install(
            {
                manager.view.name: len(manager.mv.extent)
                for manager in self.managers
            },
            tuple((m.source, m.seqno, m.committed_at) for m in unit.messages),
        )
        engine.crash_point("install.post_apply")
