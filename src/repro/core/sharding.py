"""Sharded multi-scheduler warehouse (scale-out maintenance plane).

Every prior optimisation still funnels the whole committed update
stream through ONE Dyno scheduler owning every view; aggregate
throughput is capped by a single UMQ and detection substrate no matter
how many workers or caches ride on it.  This module partitions the
views — each with its own UMQ, incremental dependency substrate,
snapshot cache, self-maintenance store and journal — across N scheduler
*shards* and coordinates them:

* :func:`assign_views` — deterministic longest-processing-time
  placement of views onto shards (weight = number of referenced
  relations), so a heavy 6-way join does not land next to three light
  subviews while another shard idles.

* :class:`ShardRouter` — footprint-based delivery: a shard receives an
  update message only when some registered view of that shard
  references a touched ``(source, relation)``.  Footprints follow
  renames monotonically — routing ``RenameRelation(old, new)`` to a
  shard adds ``new`` to its footprint, so later updates arriving under
  the new name keep flowing before the view rewrite installs.  Messages
  matching no footprint of a shard are dropped *for that shard only*
  (the source commit itself is untouched, so maintenance queries still
  observe full source state and SWEEP compensation stays exact).

* :class:`ShardedWarehouse` — interleaved min-virtual-clock stepping of
  all shard schedulers, with SC-bearing units acting as a cross-shard
  barrier: a shard whose head unit carries a schema change defers while
  any peer still holds messages committed before the SC, so the global
  interleaving respects the broken-query semantics of Theorem 1 (a
  query spanning shards never observes a schema change applied on one
  shard while a peer still maintains pre-SC updates).  The barrier is a
  scheduling *preference*, not a correctness crutch: shard worlds are
  independent, so every interleaving converges to the same extents; an
  earliest-SC release rule breaks any circular wait.

Per-shard legal orders are exactly the single-scheduler legal orders of
Theorem 2 restricted to the shard's footprint, which is why the final
extents are byte-identical to a 1-shard oracle (asserted by the
equivalence property tests and the ABL-11 ablation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..sim.engine import SimEngine
from ..sim.metrics import Metrics
from ..sources.messages import RenameRelation, UpdateMessage
from ..views.definition import ViewDefinition
from .scheduler import DynoScheduler


def assign_views(
    views: list[ViewDefinition], shards: int
) -> list[list[ViewDefinition]]:
    """Partition views over at most ``shards`` schedulers.

    Deterministic LPT: views sorted by descending weight (number of
    referenced relations, ties by name) go to the least-loaded shard.
    The effective shard count is ``min(shards, len(views))`` — a view is
    the unit of placement and never splits — and empty shards are not
    returned.
    """
    if shards < 1:
        raise ValueError(f"need at least one shard, got {shards}")
    if not views:
        raise ValueError("cannot shard zero views")
    effective = min(shards, len(views))
    buckets: list[list[ViewDefinition]] = [[] for _ in range(effective)]
    loads = [0] * effective
    ordered = sorted(
        views, key=lambda view: (-len(view.query.relations), view.name)
    )
    for view in ordered:
        target = min(range(effective), key=lambda i: (loads[i], i))
        buckets[target].append(view)
        loads[target] += len(view.query.relations)
    # Preserve the caller's view order inside each bucket.
    order = {view.name: index for index, view in enumerate(views)}
    for bucket in buckets:
        bucket.sort(key=lambda view: order[view.name])
    return buckets


class ShardRouter:
    """Footprint-based update routing across scheduler shards."""

    def __init__(self) -> None:
        self._footprints: dict[int, set[tuple[str, str]]] = {}

    def register_view(self, shard_id: int, view: ViewDefinition) -> None:
        """Register every ``(source, relation)`` the view references."""
        footprint = self._footprints.setdefault(shard_id, set())
        for ref in view.query.relations:
            footprint.add((ref.source, ref.relation))

    def register_relation(
        self, shard_id: int, source: str, relation: str
    ) -> None:
        self._footprints.setdefault(shard_id, set()).add((source, relation))

    def footprint(self, shard_id: int) -> frozenset[tuple[str, str]]:
        return frozenset(self._footprints.get(shard_id, ()))

    def accepts(self, shard_id: int, message: UpdateMessage) -> bool:
        """Does the shard's footprint cover the message?

        Accepting a ``RenameRelation`` grows the footprint with the new
        name (monotone, closed under rename chains), so data updates
        arriving under the new name are still delivered even before the
        shard's view definition is rewritten.
        """
        footprint = self._footprints.get(shard_id)
        if footprint is None:
            return False
        touched = message.payload.touched_relations()
        if not any(
            (message.source, relation) in footprint for relation in touched
        ):
            return False
        if isinstance(message.payload, RenameRelation):
            footprint.add((message.source, message.payload.new))
        return True

    def shards_for(self, message: UpdateMessage) -> tuple[int, ...]:
        """Every shard whose footprint covers the message (sorted)."""
        return tuple(
            shard_id
            for shard_id in sorted(self._footprints)
            if any(
                (message.source, relation) in self._footprints[shard_id]
                for relation in message.payload.touched_relations()
            )
        )

    def delivery_filter(
        self, shard_id: int, metrics: Metrics
    ) -> Callable[[UpdateMessage], bool]:
        """A wrapper-sink predicate for one shard (counts into
        ``metrics.router_delivered`` / ``router_dropped``)."""

        def accept(message: UpdateMessage) -> bool:
            if self.accepts(shard_id, message):
                metrics.router_delivered += 1
                return True
            metrics.router_dropped += 1
            return False

        return accept


@dataclass(frozen=True)
class WorkloadSpec:
    """A workload as rebuildable parameters: ``factory(**params)``.

    Workload *objects* hold mutable RNGs and materialize against live
    source state at fire time, so every shard world replays its own
    freshly built, identically-seeded copy and the objects never travel.
    ``factory`` must be a module-level callable — it is pickled by
    reference into the process runtime's workers."""

    factory: Callable[..., object]
    params: dict

    def build(self):
        return self.factory(**self.params)


def step_shard(shard: "Shard") -> None:
    """Step one shard once, recovering crashes from its own journal.

    Shared by the inline coordinator (:meth:`ShardedWarehouse.run`) and
    the process runtime's workers (:mod:`repro.core.runtime`), so both
    execute byte-identical per-shard work: a
    :class:`~repro.recovery.SchedulerCrash` raised mid-step tears the
    shard's warehouse down, replays checkpoint + journal (idempotently,
    so a crash during recovery is also safe) and swaps the rebuilt
    manager/scheduler/harness into the shard in place.
    """
    from ..recovery import SchedulerCrash, recover_in_place

    try:
        shard.scheduler.step()
    except SchedulerCrash:
        if shard.recovery is None:
            raise
        recover_in_place(shard)


def shard_quiescent(shard: "Shard") -> bool:
    """Nothing queued, nothing scheduled, nothing in flight."""
    scheduler = shard.scheduler
    if scheduler.stats.iterations >= scheduler.max_iterations:
        return True  # runaway guard, same contract as run()
    if not scheduler.umq.is_empty():
        return False
    if shard.engine.next_event_time() is not None:
        return False
    pool = getattr(scheduler, "pool", None)
    return pool is None or not pool.any_busy


def sc_barrier_time(shard: "Shard") -> float | None:
    """Commit time of the head unit's earliest schema change, or
    ``None`` when the head is not SC-bearing."""
    scheduler = shard.scheduler
    if scheduler.umq.is_empty():
        return None
    head = scheduler.umq.head()
    if not head.has_schema_change:
        return None
    return min(
        message.committed_at
        for message in head.messages
        if message.is_schema_change
    )


def min_pending_commit(shard: "Shard") -> float | None:
    """Earliest commit time this shard still holds un-maintained:
    queued UMQ messages plus the wrappers' committed-but-undelivered
    stream.  ``None`` when the shard holds nothing."""
    commits = [
        message.committed_at
        for message in shard.scheduler.umq.messages()
    ]
    commits.extend(
        message.committed_at
        for wrapper in shard.manager.wrappers
        for message in wrapper.pending_messages()
    )
    return min(commits) if commits else None


@dataclass(frozen=True)
class ShardStatus:
    """One shard's coordinator-visible state after a step.

    Exactly the observables a coordinator needs for its quiescence,
    barrier-deferral and earliest-SC-release decisions: the inline
    coordinator snapshots live shards, the process runtime
    (:mod:`repro.core.runtime`) ships these home over its pipes.
    """

    shard_id: int
    quiescent: bool
    clock_now: float
    #: commit time of the head unit's earliest SC (None: head not
    #: SC-bearing) — the cross-shard barrier time
    barrier_at: float | None
    #: earliest commit this shard still holds (queued + wrapper
    #: backlog); None when it holds nothing
    min_pending_commit: float | None
    #: parallel executor has in-flight dispatches
    pool_busy: bool
    #: the shard's event heap is non-empty
    has_next_event: bool

    def blocks_barrier(self, barrier_at: float) -> bool:
        """Does this shard (as a *peer*) still hold maintenance
        committed before a schema change at ``barrier_at``?

        Checks the shard's queued units and wrapper backlog, its
        in-flight parallel dispatches, and — conservatively — whether
        its clock could still reach a commit before the barrier time.
        """
        if (
            self.min_pending_commit is not None
            and self.min_pending_commit < barrier_at
        ):
            return True
        if self.pool_busy:
            return True
        return self.clock_now < barrier_at and self.has_next_event


def status_of(shard: "Shard") -> ShardStatus:
    """Snapshot one live shard into a :class:`ShardStatus`."""
    pool = getattr(shard.scheduler, "pool", None)
    return ShardStatus(
        shard_id=shard.shard_id,
        quiescent=shard_quiescent(shard),
        clock_now=shard.engine.clock.now,
        barrier_at=sc_barrier_time(shard),
        min_pending_commit=min_pending_commit(shard),
        pool_busy=pool is not None and pool.any_busy,
        has_next_event=shard.engine.next_event_time() is not None,
    )


@dataclass
class Shard:
    """One scheduler shard: a full warehouse world for a view subset.

    Each shard owns an independent :class:`~repro.sim.engine.SimEngine`
    with identically-seeded source replicas — the full committed
    workload plays into every world so source state evolves identically
    everywhere, while the router filters only the *delivery* of update
    messages into this shard's UMQ.
    """

    shard_id: int
    engine: SimEngine
    manager: object  # ViewManager | MultiViewManager
    scheduler: DynoScheduler
    view_names: tuple[str, ...]
    recovery: object | None = None
    crash_reports: list = field(default_factory=list)
    #: view name -> extent cardinality right after the initial load
    #: (version 0 of the read front end's timelines)
    initial_sizes: dict[str, int] = field(default_factory=dict)

    def view_managers(self) -> list:
        managers = getattr(self.manager, "managers", None)
        return list(managers) if managers is not None else [self.manager]

    def manager_for(self, view_name: str):
        for manager in self.view_managers():
            if manager.view.name == view_name:
                return manager
        raise KeyError(view_name)


class ShardedWarehouse:
    """Coordinates N shard schedulers to global quiescence."""

    def __init__(self, shards: list[Shard], router: ShardRouter) -> None:
        if not shards:
            raise ValueError("ShardedWarehouse needs at least one shard")
        names = [name for shard in shards for name in shard.view_names]
        if len(set(names)) != len(names):
            raise ValueError(f"view registered on several shards: {names}")
        self.shards = shards
        self.router = router

    # ------------------------------------------------------------------
    # workload fan-out
    # ------------------------------------------------------------------

    def add_workload_spec(self, workload: WorkloadSpec) -> None:
        """Schedule one identically-seeded workload copy per shard,
        each built fresh (see :class:`WorkloadSpec`): sharing one
        object across engines would interleave RNG draws and diverge
        the worlds."""
        for shard in self.shards:
            shard.engine.schedule_workload(workload.build())

    def prepare(self) -> None:
        """Nothing to launch: the shard worlds were built eagerly (the
        process runtime forks its workers and builds theirs here)."""

    # ------------------------------------------------------------------
    # the coordinator loop
    # ------------------------------------------------------------------

    def run(self) -> None:
        """Drive every shard to quiescence (min-clock interleaving).

        Each round picks the runnable shard with the smallest virtual
        clock and steps it once.  SC-barrier rule: a shard whose head
        unit is SC-bearing is deferred while some peer still holds
        messages committed before the schema change; if *every* active
        shard is deferred (circular wait), the shard with the earliest
        SC commit time is released.  Crashes raised by a shard's step
        are recovered per shard from its own journal.
        """
        while True:
            active = [
                shard for shard in self.shards if not shard_quiescent(shard)
            ]
            if not active:
                break
            runnable: list[Shard] = []
            deferred: list[tuple[float, Shard]] = []
            for shard in active:
                barrier_at = sc_barrier_time(shard)
                if barrier_at is not None and self._peer_holds_earlier_work(
                    shard, barrier_at
                ):
                    shard.engine.metrics.barrier_deferrals += 1
                    deferred.append((barrier_at, shard))
                else:
                    runnable.append(shard)
            if not runnable:
                barrier_at, released = min(
                    deferred, key=lambda pair: (pair[0], pair[1].shard_id)
                )
                released.engine.metrics.barrier_releases += 1
                runnable = [released]
            shard = min(
                runnable,
                key=lambda s: (s.engine.clock.now, s.shard_id),
            )
            step_shard(shard)
        for shard in self.shards:
            shard.scheduler.finish()

    def _peer_holds_earlier_work(
        self, shard: Shard, barrier_at: float
    ) -> bool:
        """Does any peer still hold maintenance committed before the
        schema change at ``barrier_at``?  (The per-peer predicate is
        :meth:`ShardStatus.blocks_barrier`, which the process runtime's
        coordinator evaluates on the snapshots its workers ship.)
        """
        return any(
            status_of(peer).blocks_barrier(barrier_at)
            for peer in self.shards
            if peer is not shard
        )

    # ------------------------------------------------------------------
    # aggregate observability
    # ------------------------------------------------------------------

    def aggregate_makespan(self) -> float:
        """Completion time of the slowest shard (the scale-out headline:
        serial shards report summed busy time, parallel shards their
        makespan — the aggregate is the max across shards because the
        shards run side by side)."""
        return max(shard.engine.metrics.elapsed for shard in self.shards)

    def aggregate_metrics(self) -> Metrics:
        merged = Metrics.merge(shard.engine.metrics for shard in self.shards)
        merged.makespan = self.aggregate_makespan()
        return merged

    def committed_updates(self) -> frozenset:
        """Union over shards of every maintained ``(source, seqno)``."""
        refs: set = set()
        for shard in self.shards:
            refs.update(shard.scheduler.stats.processed_messages)
            if shard.recovery is not None:
                refs |= shard.recovery.installed_refs()
        return frozenset(refs)

    def manager_for(self, view_name: str):
        for shard in self.shards:
            if view_name in shard.view_names:
                return shard.manager_for(view_name)
        raise KeyError(view_name)

    def view_names(self) -> tuple[str, ...]:
        return tuple(
            name for shard in self.shards for name in shard.view_names
        )

    def extent_rows(self) -> dict[str, tuple]:
        """Canonical (sorted row tuples) extents, for oracle compares."""
        return {
            name: tuple(
                sorted(map(tuple, self.manager_for(name).mv.extent.rows()))
            )
            for name in self.view_names()
        }

    def horizon(self) -> float:
        """Largest virtual clock across shard worlds at quiescence."""
        return max(shard.engine.clock.now for shard in self.shards)

    def shard_clocks(self) -> dict[int, float]:
        """Per-shard virtual clock, for oracle compares against the
        process runtime (clocks are interleaving-invariant because
        shard worlds are independent)."""
        return {
            shard.shard_id: shard.engine.clock.now
            for shard in self.shards
        }

    def install_logs(self) -> dict[int, list]:
        return {
            shard.shard_id: shard.engine.install_log
            for shard in self.shards
        }

    def crash_report_count(self) -> int:
        return sum(len(shard.crash_reports) for shard in self.shards)

    def consistent(self) -> bool:
        """Every shard's views converge to the fresh-recompute oracle."""
        from ..views.consistency import check_convergence

        return all(
            check_convergence(manager).consistent
            for shard in self.shards
            for manager in shard.view_managers()
        )

    def initial_sizes(self) -> dict[str, int]:
        return {
            name: size
            for shard in self.shards
            for name, size in shard.initial_sizes.items()
        }

    def cost_model(self):
        return self.shards[0].engine.cost_model
