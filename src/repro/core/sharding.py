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
  observe full source state and SWEEP compensation stays exact).  The
  router only *decides* (:meth:`ShardRouter.accepts`, the ``accepts``
  of the shard's stack description); a delivery is *counted* where it
  happens, in the wrapper sink
  (:func:`~repro.views.multi.filtered_sink`).

* :class:`ShardCoordinator` — the coordinator, written once.  Each
  round, :func:`plan_round` decides from :class:`ShardStatus` snapshots
  which shards step (every runnable one, by ``(virtual clock, shard
  id)``), which are held at the cross-shard SC barrier and which is
  released; the round goes to a *transport* as ``(shard id, command)``
  pairs, the statuses that come back are merged, and the loop repeats
  until nothing is active, then ``FINISH``.  What a command means is
  :func:`execute_command`, against a live :class:`Shard`.  The barrier:
  a shard whose head unit carries a schema change defers while any peer
  still holds messages committed before the SC, so the global
  interleaving respects the broken-query semantics of Theorem 1 (a
  query spanning shards never observes a schema change applied on one
  shard while a peer still maintains pre-SC updates).  It is a
  scheduling *preference*, not a correctness crutch: shard worlds are
  independent, so every interleaving converges to the same extents; an
  earliest-SC release rule breaks any circular wait.  The accessors a
  caller observes a run through are written here too, over the
  per-shard state records ``COLLECT`` returns.

* :class:`ShardedWarehouse` — the coordinator over the in-process
  transport: commands are executed directly against the live shards.
  (:class:`~repro.core.runtime.ProcessShardRuntime` is the same
  coordinator over pipes to worker processes.)

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
from ..views.multi import MultiViewManager
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

    A :class:`~repro.recovery.SchedulerCrash` raised mid-step tears the
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

    Exactly the observables :func:`plan_round` needs for its
    quiescence, barrier-deferral and earliest-SC-release decisions;
    every command that can change them is answered with a fresh one.
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
    manager: MultiViewManager
    scheduler: DynoScheduler
    view_names: tuple[str, ...]
    recovery: object | None = None
    crash_reports: list = field(default_factory=list)
    #: view name -> extent cardinality right after the initial load
    #: (version 0 of the read front end's timelines)
    initial_sizes: dict[str, int] = field(default_factory=dict)


def plan_round(
    statuses: dict[int, ShardStatus],
) -> tuple[list[int], list[int], int | None]:
    """One coordinator round decision from status snapshots.

    Returns ``(steps, holds, release)``: shard ids to ``STEP`` (every
    runnable shard, ordered by ``(virtual clock, shard id)`` — the
    concurrent generalization of min-clock stepping), shard ids held at
    the SC barrier, and the earliest-SC shard released when *every*
    active shard is deferred (circular wait), or ``None``.  Pure
    function of the statuses, unit-testable without a warehouse.
    """
    active = [
        status for status in statuses.values() if not status.quiescent
    ]
    runnable: list[ShardStatus] = []
    deferred: list[ShardStatus] = []
    for status in active:
        barrier_at = status.barrier_at
        if barrier_at is not None and any(
            peer.blocks_barrier(barrier_at)
            for peer in statuses.values()
            if peer.shard_id != status.shard_id
        ):
            deferred.append(status)
        else:
            runnable.append(status)
    release: int | None = None
    if not runnable and deferred:
        released = min(
            deferred, key=lambda status: (status.barrier_at, status.shard_id)
        )
        deferred = [
            status for status in deferred if status is not released
        ]
        release = released.shard_id
    steps = [
        status.shard_id
        for status in sorted(
            runnable,
            key=lambda status: (status.clock_now, status.shard_id),
        )
    ]
    holds = sorted(status.shard_id for status in deferred)
    return steps, holds, release


def execute_command(shard: Shard, op: str) -> ShardStatus | dict | None:
    """What one coordinator command means, against a live shard.

    Called for every ``(shard id, command)`` pair of a round — directly
    by the in-process transport, by a worker process for each pipe
    message — so both execute byte-identical per-shard work.  Answers
    the shard's fresh :class:`ShardStatus`, or ``None`` where nothing a
    status reports can have changed (``BARRIER_HOLD``), or the shard's
    state record (``COLLECT``).
    """
    if op == "BARRIER_HOLD":
        shard.engine.metrics.barrier_deferrals += 1
        return None
    if op == "COLLECT":
        return _collect_state(shard)
    if op == "BARRIER_RELEASE":
        shard.engine.metrics.barrier_releases += 1
        step_shard(shard)
    elif op == "STEP":
        step_shard(shard)
    elif op == "FINISH":
        shard.scheduler.finish()
    else:
        raise ValueError(f"unknown command {op!r}")
    return status_of(shard)


def _collect_state(shard: Shard) -> dict:
    """One shard's state record: everything a caller may observe of it
    once it is quiescent, as plain picklable values (a worker process
    ships this home; its live sources stay behind, so convergence is
    checked here, against them)."""
    from ..recovery import committed_updates
    from ..views.consistency import check_convergence

    managers = shard.manager.view_managers()
    return {
        #: view name -> canonical (sorted row tuples) extent
        "extents": {
            manager.view.name: tuple(
                sorted(map(tuple, manager.mv.extent.rows()))
            )
            for manager in managers
        },
        #: every maintained ``(source, seqno)``, across crashes
        "committed": committed_updates(shard),
        "clock_now": shard.engine.clock.now,
        "cost_model": shard.engine.cost_model,
        "metrics": shard.engine.metrics,
        "install_log": list(shard.engine.install_log),
        "consistent": all(
            check_convergence(manager).consistent for manager in managers
        ),
        "crash_reports": len(shard.crash_reports),
    }


class ShardCoordinator:
    """Drives N shard worlds to global quiescence over a transport.

    A transport (:meth:`_exchange`) takes one round of ``(shard id,
    command)`` pairs to the shards, has :func:`execute_command` run
    each, and brings the answers back keyed by shard id, in the order
    sent.  The round policy, the loop and the observable surface are
    here, so two warehouses that differ in their transport differ in
    nothing else: per-shard results *and* counters are identical.

    Subclasses set ``shard_ids`` (ascending), ``_initial_sizes`` once
    the worlds exist, and ``_statuses`` before :meth:`_drive`.
    """

    shard_ids: tuple[int, ...]
    _statuses: dict[int, ShardStatus]
    _initial_sizes: dict[str, int]
    #: ``{shard_id: state record}`` once collected (see :meth:`_states`)
    _collected: dict[int, dict] | None = None

    def prepare(self) -> None:
        """Make the shard worlds exist (idempotent)."""
        raise NotImplementedError

    def _exchange(self, commands: list[tuple[int, str]]) -> dict:
        raise NotImplementedError

    def _drive(self) -> None:
        """The round loop: plan, exchange, merge, repeat; then FINISH.

        Only the shards a round stepped are refreshed: worlds are
        independent, so no other status can have changed.
        """
        statuses = self._statuses
        while True:
            steps, holds, release = plan_round(statuses)
            if not steps and not holds and release is None:
                break
            commands = [(shard_id, "BARRIER_HOLD") for shard_id in holds]
            if release is not None:
                commands.append((release, "BARRIER_RELEASE"))
            commands.extend((shard_id, "STEP") for shard_id in steps)
            for shard_id, status in self._exchange(commands).items():
                if status is not None:
                    statuses[shard_id] = status
        statuses.update(
            self._exchange(
                [(shard_id, "FINISH") for shard_id in self.shard_ids]
            )
        )

    def _states(self) -> dict[int, dict]:
        """Every shard's state record, collected on first use — so a
        run that is never observed never pays for the convergence
        check."""
        if self._collected is None:
            self._collected = self._exchange(
                [(shard_id, "COLLECT") for shard_id in self.shard_ids]
            )
        return self._collected

    # ------------------------------------------------------------------
    # the observable surface, over the collected state
    # ------------------------------------------------------------------

    def extent_rows(self) -> dict[str, tuple]:
        """Canonical (sorted row tuples) extents, for oracle compares."""
        return {
            name: rows
            for state in self._states().values()
            for name, rows in state["extents"].items()
        }

    def committed_updates(self) -> frozenset:
        """Union over shards of every maintained ``(source, seqno)``."""
        return frozenset().union(
            *(state["committed"] for state in self._states().values())
        )

    def shard_clocks(self) -> dict[int, float]:
        """Per-shard virtual clock at quiescence (interleaving- and
        transport-invariant because shard worlds are independent)."""
        return {
            shard_id: state["clock_now"]
            for shard_id, state in self._states().items()
        }

    def horizon(self) -> float:
        """Largest virtual clock across shard worlds at quiescence."""
        return max(self.shard_clocks().values())

    def aggregate_makespan(self) -> float:
        """Completion time of the slowest shard (the scale-out headline:
        serial shards report summed busy time, parallel shards their
        makespan — the aggregate is the max across shards because the
        shards run side by side)."""
        return max(
            state["metrics"].elapsed for state in self._states().values()
        )

    def aggregate_metrics(self) -> Metrics:
        merged = Metrics.merge(
            state["metrics"] for state in self._states().values()
        )
        merged.makespan = self.aggregate_makespan()
        return merged

    def install_logs(self) -> dict[int, list]:
        return {
            shard_id: state["install_log"]
            for shard_id, state in self._states().items()
        }

    def initial_sizes(self) -> dict[str, int]:
        """View name -> extent cardinality right after the initial
        load; known as soon as the worlds exist, before any run."""
        self.prepare()
        return dict(self._initial_sizes)

    def consistent(self) -> bool:
        """Every shard's views converge to the fresh-recompute oracle."""
        return all(
            state["consistent"] for state in self._states().values()
        )

    def cost_model(self):
        return self._states()[self.shard_ids[0]]["cost_model"]


class ShardedWarehouse(ShardCoordinator):
    """The coordinator over live, in-process shards."""

    def __init__(self, shards: list[Shard], router: ShardRouter) -> None:
        if not shards:
            raise ValueError("ShardedWarehouse needs at least one shard")
        names = [name for shard in shards for name in shard.view_names]
        if len(set(names)) != len(names):
            raise ValueError(f"view registered on several shards: {names}")
        self.shards = shards
        self.router = router
        self._shard_of = {shard.shard_id: shard for shard in shards}
        self.shard_ids = tuple(sorted(self._shard_of))
        self._initial_sizes = {
            name: size
            for shard in shards
            for name, size in shard.initial_sizes.items()
        }

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

    def run(self) -> None:
        """Drive every shard to quiescence.  Crashes raised by a
        shard's step are recovered per shard from its own journal."""
        self._collected = None
        self._statuses = {
            shard.shard_id: status_of(shard) for shard in self.shards
        }
        self._drive()

    def _exchange(self, commands: list[tuple[int, str]]) -> dict:
        return {
            shard_id: execute_command(self._shard_of[shard_id], op)
            for shard_id, op in commands
        }

    def view_names(self) -> tuple[str, ...]:
        return tuple(
            name for shard in self.shards for name in shard.view_names
        )
