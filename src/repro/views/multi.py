"""Multiple materialized views over one update stream.

The paper closes by noting Dyno "is a general strategy ... and thus has
the potential to be plugged into any view system".  This module realizes
that claim: a :class:`MultiViewManager` maintains several materialized
views over the same autonomous sources, sharing **one** UMQ and one Dyno
scheduler.

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
from ..sim.costs import CostModel
from ..sim.engine import MaintenanceProcess, SimEngine
from ..sim.metrics import Metrics
from ..sources.messages import UpdateMessage
from ..sources.mkb import MetaKnowledgeBase
from ..sources.source import DataSource
from ..sources.wrapper import Wrapper
from .definition import ViewDefinition
from .manager import (
    MaintenanceOutcome,
    ViewManager,
    filtered_sink,
    install_write_ahead,
)
from .umq import MaintenanceUnit, UpdateMessageQueue


class MultiViewManager:
    """Maintains a set of materialized views over shared sources.

    Exposes the same protocol :class:`~repro.core.scheduler
    .DynoScheduler` drives (``umq``, ``maintenance_queries``,
    ``speculative_queries``, ``build_maintenance``, ``cost``,
    ``metrics``), so the scheduler works unchanged.
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

        ``message_filter`` gates wrapper delivery into the shared UMQ
        (see :class:`~repro.views.manager.ViewManager`); shard routers
        use it to keep out-of-footprint messages off this queue."""
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
            ViewManager(
                engine,
                view,
                mkb,
                umq=self.umq,
                attach_wrappers=False,
                initial_extent=extents.get(view.name),
            )
            for view in views
        ]
        for manager in self.managers:
            # Share the wrapper list (by reference — connect() extends
            # it) so each manager's compensation sees in-flight messages.
            manager.wrappers = self.wrappers

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
        """The per-view managers of this stack (same call on
        :class:`~repro.views.manager.ViewManager`)."""
        return list(self.managers)

    def install_self_maintenance(self):
        """Arm the shared auxiliary store: replicas cover the union of
        all views' requirements, so one store serves every sibling."""
        store = self.engine.install_self_maintenance()
        for manager in self.managers:
            store.register_view(manager.view.query)
        return store

    def manager_for(self, view_name: str) -> ViewManager:
        for manager in self.managers:
            if manager.view.name == view_name:
                return manager
        raise KeyError(view_name)

    def view(self, view_name: str) -> ViewDefinition:
        return self.manager_for(view_name).view

    def connect(self, source: DataSource) -> None:
        self.engine.add_source(source)
        self.wrappers.append(
            Wrapper(source, self._sink, engine=self.engine)
        )

    # ------------------------------------------------------------------
    # the scheduler protocol
    # ------------------------------------------------------------------

    @property
    def maintenance_queries(self) -> tuple[SPJQuery, ...]:
        return tuple(manager.view.query for manager in self.managers)

    @property
    def detection_epoch(self) -> tuple:
        """Version key for cached detection metadata (all views)."""
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
        """Maintain one unit for every view, atomically.

        Compute-then-install: a broken query during any view's compute
        phase aborts the whole unit with no view touched; the update is
        counted as maintained exactly once.
        """
        outcomes = yield from self.compute_unit(unit, pending_feed)
        self.install_unit(outcomes, unit)
        return outcomes

    def compute_unit(
        self, unit: MaintenanceUnit, pending_feed=None
    ) -> MaintenanceProcess:
        """Compute (but do not install) one unit's effect on every view."""
        outcomes: list[MaintenanceOutcome] = []
        for manager in self.managers:
            outcome = yield from manager.compute_maintenance(
                unit, pending_feed
            )
            outcomes.append(outcome)
        return outcomes

    def install_unit(
        self, prepared: list[MaintenanceOutcome], unit: MaintenanceUnit
    ) -> None:
        """Install every view's prepared outcome atomically
        (:func:`~repro.views.manager.install_write_ahead`)."""
        install_write_ahead(self, list(prepared), unit)
