"""DyDa: the integrated warehouse-maintenance system, as a facade.

The paper's prototype (DyDa [3]) bundles the view manager, the SWEEP
compensation, EVE-style synchronization, view adaptation and the Dyno
scheduler into one system.  :class:`DyDaSystem` is that bundle as a
five-line public API::

    system = DyDaSystem()
    retailer = system.add_source("retailer")
    retailer.create_relation(item_schema, rows)
    system.define_view("CREATE VIEW V AS SELECT I.Book ... ")
    system.commit("retailer", DataUpdate.insert(item_schema, [...]))
    system.run()                       # maintain to quiescence
    system.extent("V")                 # the materialized rows

Sources can be in-memory (default) or SQLite-backed; views are declared
in SQL or as :class:`~repro.views.definition.ViewDefinition` objects;
updates can be committed immediately or scheduled at virtual times.
"""

from __future__ import annotations

from .core.scheduler import DynoScheduler, SchedulerStats
from .core.stack import StackDescription, build_stack
from .core.strategies import PESSIMISTIC, Strategy
from .faults.injector import FaultInjector, FaultStats
from .faults.plan import FaultPlan
from .faults.retry import RetryPolicy
from .recovery import arm_recovery, committed_updates, run_recovering
from .relational.sql import parse_view
from .relational.table import Table
from .sim.costs import CostModel
from .sim.engine import SimEngine
from .sources.messages import SourceUpdate, UpdateMessage
from .sources.mkb import MetaKnowledgeBase
from .sources.source import DataSource
from .sources.sqlite_source import SqliteDataSource
from .sources.workload import FixedUpdate, Workload
from .views.consistency import ConsistencyReport, check_convergence
from .views.definition import ViewDefinition
from .views.manager import ViewManager
from .views.multi import MultiViewManager


class DyDaError(Exception):
    """Misuse of the DyDa facade (wrong call order, unknown names)."""


class DyDaSystem:
    """One warehouse: autonomous sources, views, the Dyno scheduler."""

    def __init__(
        self,
        strategy: Strategy = PESSIMISTIC,
        cost_model: CostModel | None = None,
        mkb: MetaKnowledgeBase | None = None,
        trace: bool = False,
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        journal: bool = False,
        checkpoint_every: int = 8,
        crash_plan=None,
    ) -> None:
        """``journal`` arms the crash-recovery subsystem
        (:mod:`repro.recovery`): write-ahead journal + checkpoint every
        ``checkpoint_every`` installs, in-memory stores.  ``crash_plan``
        additionally kills the warehouse per the seeded plan; ``run()``
        then recovers and resumes (implies ``journal``)."""
        self.engine = SimEngine(
            cost_model or CostModel.paper_default(), trace=trace
        )
        if fault_plan is not None or retry_policy is not None:
            self.engine.install_faults(
                FaultInjector(fault_plan or FaultPlan()), retry_policy
            )
        self.strategy = strategy
        self.mkb = mkb or MetaKnowledgeBase()
        self._journal = journal or crash_plan is not None
        self._checkpoint_every = checkpoint_every
        self._crash_plan = crash_plan
        self._view_definitions: list[ViewDefinition] = []
        # The live warehouse stack, in the shape repro.recovery swaps a
        # recovered one into: manager, scheduler, recovery harness.
        self.manager: ViewManager | MultiViewManager | None = None
        self.scheduler: DynoScheduler | None = None
        self.recovery = None
        self.crash_reports: list = []

    # ------------------------------------------------------------------
    # setup phase
    # ------------------------------------------------------------------

    def add_source(
        self, name: str, backend: str = "memory"
    ) -> DataSource:
        """Register an autonomous source (before any view is defined)."""
        if self.manager is not None:
            raise DyDaError(
                "add sources before defining views (or use "
                "manager.connect for late joiners)"
            )
        if backend == "memory":
            source: DataSource = DataSource(name)
        elif backend == "sqlite":
            source = SqliteDataSource(name)
        else:
            raise DyDaError(f"unknown backend {backend!r}")
        return self.engine.add_source(source)

    def define_view(
        self, view: str | ViewDefinition
    ) -> ViewDefinition:
        """Declare a view (SQL text or a ViewDefinition)."""
        if self.manager is not None:
            raise DyDaError("define all views before the first run/commit")
        if isinstance(view, str):
            name, query = parse_view(view)
            definition = ViewDefinition(name, query)
        else:
            definition = view
        self._view_definitions.append(definition)
        return definition

    def _ensure_started(self) -> None:
        if self.manager is not None:
            return
        if not self._view_definitions:
            raise DyDaError("define at least one view first")
        description = StackDescription(self.strategy, mkb=self.mkb)
        self.manager, self.scheduler = build_stack(
            self.engine, self._view_definitions, description
        )
        if self._journal:
            self.recovery = arm_recovery(
                self.engine,
                self.manager,
                self.scheduler,
                description,
                checkpoint_every=self._checkpoint_every,
                crash_plan=self._crash_plan,
            )

    # ------------------------------------------------------------------
    # update stream
    # ------------------------------------------------------------------

    def commit(
        self, source_name: str, update: SourceUpdate
    ) -> UpdateMessage:
        """Commit an update at a source right now (current virtual time)."""
        self._ensure_started()
        source = self.engine.sources.get(source_name)
        if source is None:
            raise DyDaError(f"unknown source {source_name!r}")
        return source.commit(update, at=self.engine.clock.now)

    def schedule(
        self, at: float, source_name: str, update: SourceUpdate
    ) -> None:
        """Schedule an autonomous commit at a future virtual time."""
        self._ensure_started()
        if source_name not in self.engine.sources:
            raise DyDaError(f"unknown source {source_name!r}")
        workload = Workload()
        workload.add(at, source_name, FixedUpdate(update))
        self.engine.schedule_workload(workload)

    def schedule_workload(self, workload: Workload) -> None:
        self._ensure_started()
        self.engine.schedule_workload(workload)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def run(self) -> SchedulerStats:
        """Maintain until quiescent (UMQ empty, no pending commits).

        With the journal armed, injected warehouse crashes are survived:
        the warehouse is rebuilt via :mod:`repro.recovery` and the run
        resumes until genuine quiescence."""
        self._ensure_started()
        return run_recovering(self)

    def committed_updates(self) -> frozenset:
        """Every (source, seqno) whose maintenance committed, across
        crashes."""
        self._ensure_started()
        return committed_updates(self)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    @property
    def managers(self) -> list[ViewManager]:
        self._ensure_started()
        assert self.manager is not None
        return self.manager.view_managers()

    def _manager_for(self, view_name: str | None) -> ViewManager:
        managers = self.managers
        if view_name is None:
            if len(managers) != 1:
                raise DyDaError(
                    "several views defined; name the one you want"
                )
            return managers[0]
        for manager in managers:
            if manager.view.name == view_name:
                return manager
        raise DyDaError(f"unknown view {view_name!r}")

    def definition(self, view_name: str | None = None) -> ViewDefinition:
        return self._manager_for(view_name).view

    def extent(self, view_name: str | None = None) -> Table:
        return self._manager_for(view_name).mv.extent

    def check(self, view_name: str | None = None) -> ConsistencyReport:
        """Convergence check against a fresh recompute."""
        return check_convergence(self._manager_for(view_name))

    @property
    def metrics(self):
        return self.engine.metrics

    @property
    def injector(self) -> FaultInjector | None:
        """The armed fault injector, or None when running fault-free."""
        return self.engine.injector

    @property
    def fault_stats(self) -> FaultStats | None:
        return (
            self.engine.injector.stats
            if self.engine.injector is not None
            else None
        )

    @property
    def stats(self) -> SchedulerStats:
        self._ensure_started()
        assert self.scheduler is not None
        return self.scheduler.stats

    @property
    def now(self) -> float:
        return self.engine.clock.now
