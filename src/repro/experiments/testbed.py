"""The experimental testbed of Section 6.1, scaled.

Six relations ``R1..R6`` with four attributes each, evenly distributed
over three source servers (two relations per server); the materialized
view is a one-to-one equi-join of all six relations projecting all 24
attributes.  The paper loads 100 000 tuples per relation on Oracle8i;
we default to a configurable 2 000 tuples with per-tuple costs
calibrated so virtual times land in the paper's regime (see
:meth:`repro.sim.costs.CostModel.calibrated`).

The one-to-one join is realized by a shared key domain ``1..n`` on the
first attribute ``K`` of every relation.

Every world — the classic single-scheduler testbed, span subviews under
one scheduler, each shard of a sharded warehouse, inline or inside a
worker process — is described by one
:class:`~repro.experiments.config.WarehouseConfig` and constructed by
one function, :func:`build_shard_world`.  :func:`build_testbed` and
:func:`build_sharded_testbed` only choose how many worlds there are and
what drives them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING

from ..core.scheduler import DynoScheduler
from ..core.sharding import (
    Shard,
    ShardedWarehouse,
    ShardRouter,
    WorkloadSpec,
    assign_views,
)
from ..core.stack import StackDescription, build_stack
from ..core.strategies import Strategy
from ..faults.injector import FaultInjector
from ..frontend.reads import ReadFrontEnd
from ..recovery import arm_recovery, committed_updates, run_recovering
from ..relational.predicate import AttrRef
from ..relational.query import JoinCondition, RelationRef, SPJQuery
from ..relational.schema import RelationSchema
from ..relational.types import AttributeType
from ..sim.costs import CostModel
from ..sim.engine import SimEngine
from ..sources.source import DataSource
from ..sources.workload import (
    DeleteRandomRow,
    DropRandomAttribute,
    FixedUpdate,
    InsertRandomRow,
    RenameRandomRelation,
    Workload,
)
from ..sources.messages import DropAttribute, RenameRelation
from ..views.consistency import check_convergence
from ..views.definition import ViewDefinition
from ..views.multi import MultiViewManager
from .config import ShardPlan, WarehouseConfig

if TYPE_CHECKING:
    from ..core.runtime import ProcessShardRuntime

RELATION_COUNT = 6
SOURCE_COUNT = 3
#: ``src1..src3``, in the order the engine holds them
SOURCE_NAMES = tuple(f"src{index + 1}" for index in range(SOURCE_COUNT))

#: four overlapping subviews covering R1..R6 with every relation in at
#: most two views — the balanced multi-view workload the sharding
#: ablation (ABL-11) scales across shards
SHARDED_SPANS: tuple[tuple[int, int], ...] = (
    (0, 2),
    (1, 3),
    (3, 5),
    (4, 6),
)


def make_du_workload(
    tuples_per_relation: int,
    count: int,
    start: float,
    interval: float,
    insert_fraction: float = 0.8,
    seed: int = 7,
    key_domain: int | None = None,
) -> Workload:
    """Standalone flavour of :meth:`Testbed.random_du_workload`.

    Builds a FRESH workload (own RNG) on every call, which is what the
    sharded warehouse needs: each shard world replays its own
    identically-seeded copy, because workload intents hold mutable RNGs
    and materialize against live source state at fire time.
    """
    rng = random.Random(seed)
    n = key_domain or tuples_per_relation
    key_range = None if key_domain is None else (1, n)
    workload = Workload()
    for index in range(count):
        at = start + index * interval
        source_index = rng.randrange(SOURCE_COUNT)
        source = source_name(source_index)
        if rng.random() < insert_fraction:
            intent = InsertRandomRow(
                rng, key_factory=lambda r, n=n: r.randrange(1, n + 1)
            )
        else:
            intent = DeleteRandomRow(rng, key_range=key_range)
        workload.add(at, source, intent)
    return workload


def make_sc_workload(
    count: int,
    start: float,
    interval: float,
    seed: int = 11,
    drop_first: bool = True,
) -> Workload:
    """Standalone flavour of :meth:`Testbed.schema_change_workload`."""
    rng = random.Random(seed)
    workload = Workload()
    for index in range(count):
        at = start + index * interval
        source = source_name(rng.randrange(SOURCE_COUNT))
        if index == 0 and drop_first:
            intent = DropRandomAttribute(rng)
        else:
            intent = RenameRandomRelation(rng)
        workload.add(at, source, intent)
    return workload


def relation_name(index: int) -> str:
    return f"R{index + 1}"


def source_name(index: int) -> str:
    return SOURCE_NAMES[index]


def source_of_relation(index: int) -> str:
    """Relations are distributed round-robin two per server."""
    return source_name(index // (RELATION_COUNT // SOURCE_COUNT))


def relation_schema(index: int) -> RelationSchema:
    name = relation_name(index)
    return RelationSchema.of(
        name,
        [
            ("K", AttributeType.INT),
            (f"A{index + 1}", AttributeType.STRING),
            (f"B{index + 1}", AttributeType.FLOAT),
            (f"C{index + 1}", AttributeType.INT),
        ],
    )


def du_stream(
    config: WarehouseConfig,
    count: int,
    start: float,
    interval: float,
    **stream,
) -> WorkloadSpec:
    """:func:`make_du_workload` over ``config``'s key range, as a spec
    every world can rebuild (``stream``: ``insert_fraction``, ``seed``,
    ``key_domain``)."""
    return WorkloadSpec(
        make_du_workload,
        dict(
            tuples_per_relation=config.tuples_per_relation,
            count=count,
            start=start,
            interval=interval,
            **stream,
        ),
    )


def sc_stream(
    count: int, start: float, interval: float, **stream
) -> WorkloadSpec:
    """:func:`make_sc_workload` as a spec (``stream``: ``seed``,
    ``drop_first``)."""
    return WorkloadSpec(
        make_sc_workload,
        dict(count=count, start=start, interval=interval, **stream),
    )


# ----------------------------------------------------------------------
# the one world builder
# ----------------------------------------------------------------------


def subview_query(first: int, last: int) -> SPJQuery:
    """An equi-join of testbed relations ``R{first+1}..R{last}``,
    projecting each relation's ``A`` attribute."""
    return _join_query(first, last, lambda index: (f"A{index + 1}",))


def _join_query(first: int, last: int, attributes_of) -> SPJQuery:
    relations = tuple(
        RelationRef(
            source_of_relation(index), relation_name(index), f"T{index + 1}"
        )
        for index in range(first, last)
    )
    projection = tuple(
        AttrRef(f"T{index + 1}", attribute)
        for index in range(first, last)
        for attribute in attributes_of(index)
    )
    joins = tuple(
        JoinCondition(
            AttrRef(f"T{index + 1}", "K"), AttrRef(f"T{index + 2}", "K")
        )
        for index in range(first, last - 1)
    )
    return SPJQuery(relations, projection, joins)


def full_join_query() -> SPJQuery:
    """The paper's view: all six relations joined, all 24 attributes."""
    return _join_query(
        0,
        RELATION_COUNT,
        lambda index: relation_schema(index).attribute_names,
    )


def _views(config: WarehouseConfig, names) -> list[ViewDefinition]:
    """``config``'s views, called ``names`` (a shard's config holds
    just that shard's spans; the names say which views those are)."""
    if config.spans is None:
        return [ViewDefinition(names[0], full_join_query())]
    return [
        ViewDefinition(name, subview_query(first, last))
        for name, (first, last) in zip(names, config.spans)
    ]


def _load_sources(engine: SimEngine, config: WarehouseConfig) -> None:
    """Add the three sources and load ``R1..R6`` (seeded)."""
    rng = random.Random(config.seed)
    if config.backend == "memory":
        make_source = DataSource
    else:
        from ..sources.sqlite_source import SqliteDataSource

        make_source = SqliteDataSource
    sources = [
        engine.add_source(make_source(source_name(i)))
        for i in range(SOURCE_COUNT)
    ]
    for index in range(RELATION_COUNT):
        schema = relation_schema(index)
        owner = sources[index // (RELATION_COUNT // SOURCE_COUNT)]
        rows = [
            (
                key,
                f"a{index}-{key}",
                round(rng.uniform(0, 1000), 2),
                rng.randrange(10_000),
            )
            for key in range(1, config.tuples_per_relation + 1)
        ]
        owner.create_relation(schema, rows)


def build_shard_world(
    plan: ShardPlan, router: ShardRouter | None = None
) -> Shard:
    """Build ONE warehouse world: engine, loaded sources, views,
    manager, scheduler, recovery harness.

    The only constructor of testbed worlds — single-scheduler testbeds,
    inline shards and worker-process shards all come from here, so they
    are identical **by construction**.  With a ``router`` the world's
    views are registered under ``plan.shard_id`` and its stack is
    delivered only what the shard's footprint accepts; without one
    every message is delivered (the classic unrouted testbed).
    """
    config = plan.config
    engine = SimEngine(CostModel.calibrated(config.tuples_per_relation))
    if config.snapshot_cache:
        engine.install_snapshot_cache()
    _load_sources(engine, config)
    if config.fault_plan is not None:
        engine.install_faults(FaultInjector(config.fault_plan))
    views = _views(config, plan.view_names)
    accepts = None
    if router is not None:
        for view in views:
            router.register_view(plan.shard_id, view)
        accepts = partial(router.accepts, plan.shard_id)
    description = StackDescription(
        config.strategy,
        config.parallel_workers,
        config.batch_policy,
        accepts=accepts,
    )
    manager, scheduler = build_stack(engine, views, description)
    if config.self_maintenance:
        store = manager.install_self_maintenance()
        for source in engine.sources.values():
            store.seed_from_source(source)
    recovery = None
    if config.journal:
        recovery = arm_recovery(
            engine,
            manager,
            scheduler,
            description,
            checkpoint_every=config.checkpoint_every,
            crash_plan=config.crash_plan,
            journal_dir=config.journal_dir,
        )
    shard = Shard(
        plan.shard_id,
        engine,
        manager,
        scheduler,
        plan.view_names,
        recovery=recovery,
    )
    shard.initial_sizes = {
        view_manager.view.name: len(view_manager.mv.extent)
        for view_manager in manager.view_managers()
    }
    return shard


def plan_shards(config: WarehouseConfig) -> list[ShardPlan]:
    """Place the config's views over at most ``config.shards`` worlds
    (deterministic LPT, :func:`~repro.core.sharding.assign_views`); each
    world journals under its own ``shard-N`` directory."""
    names = config.view_names()
    span_of = dict(zip(names, config.spans or ()))
    plans = []
    for shard_id, bucket in enumerate(
        assign_views(_views(config, names), config.shards)
    ):
        owned = tuple(view.name for view in bucket)
        world = config
        if config.spans is not None:
            world = world.replace(
                spans=tuple(span_of[name] for name in owned)
            )
        if config.journal_dir is not None:
            world = world.replace(
                journal_dir=str(Path(config.journal_dir) / f"shard-{shard_id}")
            )
        plans.append(ShardPlan(shard_id, owned, world))
    return plans


# ----------------------------------------------------------------------
# the two testbeds
# ----------------------------------------------------------------------


def _extent_rows(manager) -> tuple:
    return tuple(sorted(map(tuple, manager.mv.extent.rows())))


@dataclass
class Testbed:
    """One world under one scheduler (the paper's environment).

    The testbed *is* the live warehouse stack — ``engine``, ``manager``,
    ``scheduler``, ``recovery`` — in the shape
    :func:`repro.recovery.recover_in_place` swaps a recovered one into.
    """

    config: WarehouseConfig
    engine: SimEngine
    manager: MultiViewManager
    scheduler: DynoScheduler
    #: crash-recovery harness (``None`` unless the journal is armed)
    recovery: object | None = None
    #: one report per recovery performed during :meth:`run`
    crash_reports: list = field(default_factory=list)

    @classmethod
    def build(cls, config: WarehouseConfig) -> "Testbed":
        if config.shards > 1 or config.shard_processes:
            raise ValueError(
                "a Testbed is one in-process world; shards and "
                "shard_processes need build_sharded_testbed"
            )
        world = build_shard_world(ShardPlan(0, config.view_names(), config))
        return cls(
            config, world.engine, world.manager, world.scheduler, world.recovery
        )

    @property
    def tuples_per_relation(self) -> int:
        return self.config.tuples_per_relation

    @property
    def metrics(self):
        return self.engine.metrics

    # ------------------------------------------------------------------
    # workload helpers
    # ------------------------------------------------------------------

    def random_du_workload(
        self,
        count: int,
        start: float,
        interval: float,
        insert_fraction: float = 0.8,
        seed: int = 7,
        key_domain: int | None = None,
    ) -> Workload:
        """Mixed insert/delete data updates, keys drawn from the live
        key domain so most updates touch the view.

        ``key_domain`` narrows *every* operation's keys to
        ``1..key_domain`` (default: the full ``1..tuples_per_relation``
        range): inserts draw their key from the domain and deletes pick
        among rows whose key lies in it.  A small domain makes updates
        collide on join keys — the hot-key regime where adjacent
        maintenance passes probe for the same keys and the snapshot
        cache / auxiliary store pay off — without deletes silently
        degenerating into no-ops outside the hot set.
        """
        return make_du_workload(
            self.tuples_per_relation,
            count,
            start,
            interval,
            insert_fraction=insert_fraction,
            seed=seed,
            key_domain=key_domain,
        )

    def schema_change_workload(
        self,
        count: int,
        start: float,
        interval: float,
        seed: int = 11,
        drop_first: bool = True,
    ) -> Workload:
        """``count`` schema changes: one drop-attribute followed by
        rename-relation operations, randomly placed over the six
        relations (the Section 6.4 mixture)."""
        return make_sc_workload(
            count, start, interval, seed=seed, drop_first=drop_first
        )

    def schedule(self, *workloads: WorkloadSpec) -> None:
        for workload in workloads:
            self.engine.schedule_workload(workload.build())

    # ------------------------------------------------------------------
    # running and observing
    # ------------------------------------------------------------------

    def prepare(self) -> None:
        """Nothing to launch (see :meth:`ShardedTestbed.prepare`)."""

    def run(self) -> None:
        """Schedule nothing more; drive the scheduler to quiescence.

        With a recovery harness armed, crashes injected mid-run are
        survived: the dead warehouse is torn down, ``recover()`` rebuilds
        it from checkpoint + journal, and the run resumes — including
        crashes injected during recovery itself."""
        run_recovering(self)

    def extent_rows(self) -> dict[str, tuple]:
        """Canonical (sorted row tuples) extents, for oracle compares."""
        return {
            manager.view.name: _extent_rows(manager)
            for manager in self.manager.view_managers()
        }

    def committed_updates(self) -> frozenset:
        """Every (source, seqno) whose maintenance committed, across
        crashes."""
        return committed_updates(self)

    def check_consistency(self) -> bool:
        """Every view converges to the fresh-recompute oracle."""
        return all(
            check_convergence(manager).consistent
            for manager in self.manager.view_managers()
        )


class ShardedTestbed:
    """A sharded multi-view warehouse plus its read front end.

    One ``driver`` runs it: the
    :class:`~repro.core.sharding.ShardCoordinator` over in-process
    shards (:class:`~repro.core.sharding.ShardedWarehouse`) or over
    ``config.shard_processes`` OS workers
    (:class:`~repro.core.runtime.ProcessShardRuntime`).  The accessors
    are the coordinator's, so nothing here asks which one it has.
    """

    def __init__(
        self, config: WarehouseConfig, plans: list[ShardPlan], driver
    ) -> None:
        self.config = config
        self.plans = plans
        self.driver = driver
        inline = isinstance(driver, ShardedWarehouse)
        #: the driver again, under the name of its kind (the other is
        #: ``None``), for callers that need kind-specific surface:
        #: live shard engines, or the process runtime's wall timings
        self.warehouse: ShardedWarehouse | None = driver if inline else None
        self.runtime: ProcessShardRuntime | None = (
            None if inline else driver
        )

    @classmethod
    def build(cls, config: WarehouseConfig) -> "ShardedTestbed":
        """One full world per effective shard — own engine,
        identically-seeded source replicas, caches, journal (under
        ``journal_dir/shard-N``), fault injector — wired through the
        footprint router.  ``shards=1`` is the oracle arm: one scheduler
        owning every view, still driven through the coordinator so the
        code path (not just the answer) is comparable."""
        plans = plan_shards(config)
        if config.shard_processes:
            # Imported on demand: multiprocessing and its sockets are a
            # tenth of this module's import time, paid by inline runs
            # for nothing.
            from ..core.runtime import ProcessShardRuntime

            driver = ProcessShardRuntime(
                plans, build_shard_world, config.shard_processes
            )
        else:
            router = ShardRouter()
            driver = ShardedWarehouse(
                [build_shard_world(plan, router) for plan in plans], router
            )
        return cls(config, plans, driver)

    @property
    def metrics(self):
        """Aggregated metrics; ``metrics.makespan`` is the aggregate
        makespan (completion time of the slowest shard)."""
        return self.driver.aggregate_metrics()

    @property
    def initial_sizes(self) -> dict[str, int]:
        """View name -> extent cardinality right after the initial load
        (the read front end's version-0 sizes)."""
        return self.driver.initial_sizes()

    def schedule(self, *workloads: WorkloadSpec) -> None:
        """Fan each stream out: one identically-seeded copy per shard
        world (sources evolve identically; the router filters only the
        wrapper -> UMQ delivery)."""
        for workload in workloads:
            self.driver.add_workload_spec(workload)

    def schedule_du_workload(
        self,
        count: int,
        start: float,
        interval: float,
        insert_fraction: float = 0.8,
        seed: int = 7,
        key_domain: int | None = None,
    ) -> None:
        self.schedule(
            du_stream(
                self.config,
                count,
                start,
                interval,
                insert_fraction=insert_fraction,
                seed=seed,
                key_domain=key_domain,
            )
        )

    def schedule_sc_workload(
        self,
        count: int,
        start: float,
        interval: float,
        seed: int = 11,
        drop_first: bool = True,
    ) -> None:
        self.schedule(
            sc_stream(count, start, interval, seed=seed, drop_first=drop_first)
        )

    def prepare(self) -> None:
        """Make the worlds exist (forks the workers of a process
        runtime; inline worlds were built eagerly), so that callers can
        time construction apart from execution."""
        self.driver.prepare()

    def run(self) -> None:
        self.driver.run()

    def committed_updates(self) -> frozenset:
        return self.driver.committed_updates()

    def extent_rows(self) -> dict[str, tuple]:
        return self.driver.extent_rows()

    def shard_clocks(self) -> dict[int, float]:
        """Per-shard virtual clocks after the run (identity checks)."""
        return self.driver.shard_clocks()

    def check_consistency(self) -> bool:
        """Every shard's views converge to the fresh-recompute oracle
        (a process runtime checked inside each worker at COLLECT time,
        against the worker's own live sources)."""
        return self.driver.consistent()

    def read_front_end(self) -> ReadFrontEnd:
        """Build the post-run read front end over the install logs."""
        driver = self.driver
        return ReadFrontEnd.from_install_logs(
            driver.install_logs(),
            {
                name: plan.shard_id
                for plan in self.plans
                for name in plan.view_names
            },
            driver.initial_sizes(),
            driver.cost_model(),
            driver.horizon(),
        )


def sharded_config(**knobs) -> WarehouseConfig:
    """A config with the sharded warehouse's defaults: the four
    ``SHARDED_SPANS`` subviews over 200-tuple relations."""
    return WarehouseConfig(
        **{"tuples_per_relation": 200, "spans": SHARDED_SPANS, **knobs}
    )


def build_testbed(strategy: Strategy, **knobs) -> Testbed:
    """One world under one scheduler: by default the paper's 6-way join
    view ``V`` over 2000-tuple relations.  ``knobs`` are
    :class:`~repro.experiments.config.WarehouseConfig` fields."""
    return Testbed.build(WarehouseConfig(strategy=strategy, **knobs))


def build_sharded_testbed(strategy: Strategy, **knobs) -> ShardedTestbed:
    """The config's views placed over ``shards`` worlds behind the
    coordinator, with :func:`sharded_config`'s defaults.  ``knobs`` are
    :class:`~repro.experiments.config.WarehouseConfig` fields."""
    return ShardedTestbed.build(sharded_config(strategy=strategy, **knobs))


def fixed_drop_attribute(
    relation_index: int, attribute: str | None = None
) -> FixedUpdate:
    """A deterministic drop of one non-key attribute of R_{i+1}."""
    name = relation_name(relation_index)
    target = attribute or f"B{relation_index + 1}"
    return FixedUpdate(DropAttribute(name, target))


def fixed_rename_relation(relation_index: int, version: int = 2) -> FixedUpdate:
    name = relation_name(relation_index)
    return FixedUpdate(RenameRelation(name, f"{name}__v{version}"))
