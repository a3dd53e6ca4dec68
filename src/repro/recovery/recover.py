"""Crash simulation, the recovery harness, and ``recover()``.

Crash model
-----------

Only the *warehouse* dies.  The engine world — virtual clock, sources
with their full update logs, scheduled workload commits, fault
machinery — survives.  :func:`simulate_crash` models the death: it
purges every warehouse-owned event from the engine queue (in-flight
wrapper deliveries, worker resumptions, round trips), severs all source
subscriptions (the dead warehouse's wrappers), and drops the volatile
local-answer stores.  What remains durable is exactly the journal sink and
the checkpoint store.

Recovery
--------

:func:`recover` rebuilds a live warehouse from durable state:

1. load the latest checkpoint; replay journal entries with
   ``seq > checkpoint.journal_seq`` over its view extents (write-ahead
   install entries carry the per-view effects), logging each replayed
   install the engine's install log does not hold yet;
2. the union of checkpointed + replayed install/skip refs is the
   **resolved set**; every source-log message outside it *that the
   stack's delivery predicate admits* is re-enqueued (covering units
   lost from the UMQ, units orphaned on dead workers, and deliveries
   purged in flight; what a shard's router dropped before the crash
   stays dropped) — correction re-derives any legal order, so
   re-enqueueing sorted by commit time is sound (Theorem 2);
3. schema history is re-derived from the resolved install units' own
   messages (the logs survive), so translation of old pending updates
   behaves exactly as live;
4. local-answer store entries (aux replicas, cached answers) are
   restored only up to the committed-update watermark; anything newer
   is invalidated;
5. a fresh scheduler + journal + checkpoint are installed; the recovery
   checkpoint truncates the journal.

The warehouse is rebuilt by the constructor that built it
(:func:`~repro.core.stack.build_stack` over the harness's stack
description), so Theorem 2's argument is about the warehouse that
crashed: same strategy, workers, batch policy, MKB, delivery predicate.

Replay mutates nothing durable until that final checkpoint, and the
``seq`` filter makes re-replay a no-op — so a crash *during* recovery
(injected at ``recover.replay`` or the checkpoint points) is handled by
simply crashing the half-built warehouse and running ``recover`` again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .checkpoint import CheckpointStore
from .codec import (
    Ref,
    definition_from_json,
    definition_to_json,
    delta_from_json,
    table_from_json,
    table_to_json,
)
from .crash import SchedulerCrash  # noqa: F401  (re-export convenience)
from .journal import JournalSink, MaintenanceJournal


class RecoveryError(Exception):
    """Recovery is impossible (e.g. no checkpoint was ever taken)."""


def simulate_crash(engine) -> int:
    """Kill the warehouse: purge its events, subscriptions, and local
    stores.

    Idempotent — crashing an already-dead warehouse changes nothing.
    Returns the number of purged in-flight events.
    """
    from ..sim.engine import WAREHOUSE_OWNER

    purged = engine.purge_owned_events(WAREHOUSE_OWNER)
    for source in engine.sources.values():
        source.clear_subscribers()
    for store in engine.local_stores:
        store.clear()
    return purged


def _contiguous_watermark(resolved: set[Ref], sources) -> dict[str, int]:
    """Largest per-source n with 1..n all resolved."""
    by_source: dict[str, set[int]] = {}
    for source, seqno in resolved:
        by_source.setdefault(source, set()).add(seqno)
    marks = {}
    for name in sources:
        seen = by_source.get(name, set())
        mark = 0
        while mark + 1 in seen:
            mark += 1
        marks[name] = mark
    return marks


@dataclass
class RecoveryReport:
    """What one ``recover()`` call did."""

    at: float
    crash_point: str | None
    checkpoint_seq: int
    replayed_entries: int
    replayed_installs: int
    replayed_skips: int
    reenqueued: int
    watermark: dict[str, int] = field(default_factory=dict)
    #: tier -> local-store entries restored / dropped (stamped past the
    #: committed watermark, or no longer covering the views) at recovery
    local_restored: dict[str, int] = field(default_factory=dict)
    local_dropped: dict[str, int] = field(default_factory=dict)

    def describe(self) -> str:
        return (
            f"recovered@{self.at:g} from ckpt#{self.checkpoint_seq} "
            f"(+{self.replayed_installs} installs, "
            f"+{self.replayed_skips} skips replayed, "
            f"{self.reenqueued} re-enqueued)"
        )


@dataclass
class RecoveredWarehouse:
    """The live replacement stack handed back by ``recover()``."""

    manager: object
    scheduler: object
    harness: "RecoveryHarness"
    report: RecoveryReport


class RecoveryHarness:
    """Owns the journal + checkpoint lifecycle for one warehouse epoch.

    One harness serves one (manager, scheduler) incarnation; each
    ``recover()`` builds a successor harness whose journal continues the
    sequence numbering.  ``installed_units`` / ``skipped_units`` are the
    one resolved-unit history across every epoch: the journal appends to
    it, each checkpoint serialises it, and the successor starts from the
    checkpointed history plus the replayed entries.  ``description`` is
    what the stack was built from, and so what ``recover()`` rebuilds it
    from.
    """

    def __init__(
        self,
        engine,
        manager,
        scheduler,
        description,
        sink: JournalSink,
        store: CheckpointStore,
        *,
        checkpoint_every: int = 8,
        start_seq: int = 1,
        installed_units: list[list[Ref]] | None = None,
        skipped_units: list[list[Ref]] | None = None,
    ):
        self.engine = engine
        self.manager = manager
        self.scheduler = scheduler
        self.sink = sink
        self.store = store
        self.description = description
        self.checkpoint_every = checkpoint_every
        self.installed_units = list(installed_units or [])
        self.skipped_units = list(skipped_units or [])
        #: resolved units the last checkpoint covered
        self._checkpointed = self._resolved_count()
        self.journal = MaintenanceJournal(
            sink,
            engine,
            self.installed_units,
            self.skipped_units,
            start_seq=start_seq,
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def attach(self, force_checkpoint: bool = False) -> None:
        """Wire the journal into the live stack.

        Writes a genesis checkpoint if the store is empty (so recovery
        is possible from the very first crash), or unconditionally when
        ``force_checkpoint`` (the recovery checkpoint, which truncates
        the replayed journal)."""
        self.manager.umq.add_listener(self.journal)
        self.manager.journal = self.journal
        self.scheduler.recovery = self
        if force_checkpoint or self.store.load() is None:
            self.checkpoint()

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------

    def skipped_refs(self) -> frozenset[Ref]:
        """Every (source, seqno) a policy skipped across all epochs."""
        return frozenset(ref for unit in self.skipped_units for ref in unit)

    def _resolved_count(self) -> int:
        return len(self.installed_units) + len(self.skipped_units)

    def maybe_checkpoint(self) -> None:
        resolved = self._resolved_count() - self._checkpointed
        if resolved >= self.checkpoint_every:
            self.checkpoint()

    def _build_state(self) -> tuple[dict, int]:
        """The checkpoint document and its billable tuple count."""
        views = []
        tuples = 0
        for manager in self.manager.view_managers():
            views.append(
                {
                    "definition": definition_to_json(manager.view),
                    "extent": table_to_json(manager.mv.extent),
                }
            )
            tuples += len(manager.mv.extent)
        local: dict[str, list] = {}
        for store in self.engine.local_stores:
            rows = local[store.tier] = []
            for source, key, version, table in store.export_entries():
                rows.append([source, key, version, table_to_json(table)])
                tuples += len(table)
        state = {
            "journal_seq": self.journal.last_seq,
            "at": self.engine.clock.now,
            "views": views,
            "installed_units": [
                [list(ref) for ref in unit] for unit in self.installed_units
            ],
            "skipped_units": [
                [list(ref) for ref in unit] for unit in self.skipped_units
            ],
            "local": local,
        }
        return state, tuples

    def checkpoint(self) -> None:
        """Snapshot durable state, then truncate the journal.

        Crash-window analysis: a crash before ``save`` loses nothing; a
        crash between ``save`` and ``truncate`` leaves stale journal
        entries whose ``seq <= journal_seq`` replay skips; a crash after
        ``truncate`` is a clean checkpoint."""
        engine = self.engine
        engine.crash_point("checkpoint.pre")
        state, tuples = self._build_state()
        self.store.save(state)
        engine.crash_point("checkpoint.mid")
        self.sink.truncate()
        self._checkpointed = self._resolved_count()
        engine.metrics.checkpoints_taken += 1
        engine.metrics.charge(
            "checkpoint", engine.cost_model.checkpoint(tuples)
        )
        engine.crash_point("checkpoint.post")

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def recover(self) -> RecoveredWarehouse:
        return recover(self)


def recover(harness: RecoveryHarness) -> RecoveredWarehouse:
    """Rebuild a live warehouse from checkpoint + journal replay."""
    from ..core.stack import build_stack
    from ..maintenance.batch import combine_schema_changes, schema_changes_of
    from ..views.umq import MaintenanceUnit

    engine = harness.engine
    state = harness.store.load()
    if state is None:
        raise RecoveryError("no checkpoint to recover from")

    # ------------------------------------------------------------- replay
    base_seq = state["journal_seq"]
    all_entries = harness.sink.entries()
    max_seq = max([base_seq] + [entry["seq"] for entry in all_entries])
    fresh = [entry for entry in all_entries if entry["seq"] > base_seq]

    view_states = [
        [definition_from_json(v["definition"]), table_from_json(v["extent"])]
        for v in state["views"]
    ]
    installed_units: list[list[Ref]] = [
        [tuple(ref) for ref in unit] for unit in state["installed_units"]
    ]
    skipped_units: list[list[Ref]] = [
        [tuple(ref) for ref in unit] for unit in state["skipped_units"]
    ]
    # The install log is the one record of what committed: a unit whose
    # entry was written but whose apply the crash cut off is logged here,
    # at the recovery instant.  Checked on refs, so a retried replay
    # adds no duplicate.
    logged = committed_updates(harness)  # the harness's engine's log
    replayed_installs = replayed_skips = 0
    for entry in fresh:
        kind = entry["kind"]
        if kind not in ("install", "skip"):
            continue
        engine.crash_point("recover.replay")
        refs = [tuple(ref) for ref in entry["refs"]]
        if kind == "install":
            for view_state, effect in zip(view_states, entry["effects"]):
                if effect["kind"] == "replace":
                    view_state[0] = definition_from_json(
                        effect["definition"]
                    )
                    view_state[1] = table_from_json(effect["extent"])
                elif effect["kind"] == "delta":
                    view_state[1].apply_delta(
                        delta_from_json(effect["delta"])
                    )
            if not logged.issuperset(refs):
                engine.record_install(
                    {
                        definition.name: len(extent)
                        for definition, extent in view_states
                    },
                    tuple(
                        (
                            source,
                            seqno,
                            engine.sources[source].log[seqno - 1].committed_at,
                        )
                        for source, seqno in refs
                    ),
                )
            installed_units.append(refs)
            replayed_installs += 1
        else:
            skipped_units.append(refs)
            replayed_skips += 1

    metrics = engine.metrics
    metrics.recoveries += 1
    metrics.replayed_entries += len(fresh)
    metrics.charge("replay", engine.cost_model.replay(len(fresh)))

    resolved: set[Ref] = {
        ref for unit in installed_units for ref in unit
    } | {ref for unit in skipped_units for ref in unit}

    # ------------------------------------------------- rebuild warehouse
    # Everything unresolved that this stack is delivered, in commit
    # order: lost UMQ units, units orphaned on dead workers, deliveries
    # purged in flight.  The predicate is asked in that order too —
    # admitting a rename admits later updates under the new name.
    accepts = harness.description.accepts
    pending = [
        message
        for source in engine.sources.values()
        for message in source.log
        if (message.source, message.seqno) not in resolved
    ]
    pending.sort(key=lambda m: (m.committed_at, m.seqno, m.source))
    if accepts is not None:
        pending = [message for message in pending if accepts(message)]
    definitions, extents = zip(*view_states)
    manager, scheduler = build_stack(
        engine, definitions, harness.description, extents, backlog=pending
    )
    managers = manager.view_managers()

    # Schema lineage: re-derive each installed unit's combined changes
    # from its own messages (still in the surviving source logs) — the
    # identical pure computation the live install ran.
    for unit_refs in installed_units:
        messages = [
            engine.sources[source].log[seqno - 1]
            for source, seqno in unit_refs
        ]
        unit = MaintenanceUnit(list(messages))
        if not unit.has_schema_change:
            continue
        combined = combine_schema_changes(schema_changes_of(unit))
        for view_manager in managers:
            for source, change in combined:
                view_manager.schema_history.record(source, change)

    # Local-answer stores: only entries stamped at or below the
    # committed watermark survive; newer stamps may outrun what the
    # recovered warehouse has maintained, so they are invalidated.  The
    # aux store's requirements are re-registered from the *recovered*
    # view definitions first, so its restore skips any replica whose
    # columns no longer cover the (possibly rewritten) views' needs.
    watermark = _contiguous_watermark(resolved, engine.sources)
    if engine.selfmaint is not None:
        for view_manager in managers:
            engine.selfmaint.register_view(view_manager.view.query)
    local_restored: dict[str, int] = {}
    local_dropped: dict[str, int] = {}
    for store in engine.local_stores:
        saved = state["local"].get(store.tier, [])
        restored = store.restore_entries(
            [
                (source, key, version, table_from_json(table_json))
                for source, key, version, table_json in saved
                if version <= watermark.get(source, 0)
            ]
        )
        local_restored[store.tier] = restored
        local_dropped[store.tier] = len(saved) - restored

    successor = RecoveryHarness(
        engine,
        manager,
        scheduler,
        harness.description,
        harness.sink,
        harness.store,
        checkpoint_every=harness.checkpoint_every,
        start_seq=max_seq + 1,
        installed_units=installed_units,
        skipped_units=skipped_units,
    )
    # The recovery checkpoint: persists the rebuilt state and truncates
    # the replayed journal.  Crash points inside fire like any other —
    # a crash here is recovered by running recover() again.
    successor.attach(force_checkpoint=True)

    injector = engine.crash_injector
    crash_point = (
        injector.fired.point
        if injector is not None and injector.fired is not None
        else None
    )
    report = RecoveryReport(
        at=engine.clock.now,
        crash_point=crash_point,
        checkpoint_seq=base_seq,
        replayed_entries=len(fresh),
        replayed_installs=replayed_installs,
        replayed_skips=replayed_skips,
        reenqueued=len(pending),
        watermark=watermark,
        local_restored=local_restored,
        local_dropped=local_dropped,
    )
    return RecoveredWarehouse(manager, scheduler, successor, report)


def arm_recovery(
    engine,
    manager,
    scheduler,
    description,
    *,
    checkpoint_every: int = 8,
    crash_plan=None,
    journal_dir=None,
) -> RecoveryHarness:
    """Attach a journal + checkpoint harness (and a crash injector).

    Stores are in memory, or ``journal.jsonl`` / ``checkpoint.json``
    under ``journal_dir`` (created if missing).  ``description`` is the
    :class:`~repro.core.stack.StackDescription` ``manager`` and
    ``scheduler`` were built from; ``recover()`` rebuilds from it."""
    from .checkpoint import FileCheckpointStore, MemoryCheckpointStore
    from .crash import CrashInjector
    from .journal import FileJournalSink, MemoryJournalSink

    if journal_dir is not None:
        from pathlib import Path

        directory = Path(journal_dir)
        directory.mkdir(parents=True, exist_ok=True)
        sink = FileJournalSink(directory / "journal.jsonl")
        store = FileCheckpointStore(directory / "checkpoint.json")
    else:
        sink = MemoryJournalSink()
        store = MemoryCheckpointStore()
    harness = RecoveryHarness(
        engine,
        manager,
        scheduler,
        description,
        sink,
        store,
        checkpoint_every=checkpoint_every,
    )
    # Attach (genesis checkpoint) before arming the injector: the plan
    # starts counting when the scheduler does.
    harness.attach()
    if crash_plan is not None:
        engine.crash_injector = CrashInjector(crash_plan)
    return harness


def recover_in_place(world) -> None:
    """Tear the crashed warehouse of ``world`` down and swap in the
    one ``recover()`` rebuilds from checkpoint + journal.

    ``world`` is anything holding one live stack as ``engine``,
    ``manager``, ``scheduler``, ``recovery`` (its harness) and a
    ``crash_reports`` list — a testbed, a shard, the DyDa facade."""
    while True:
        simulate_crash(world.engine)
        try:
            recovered = world.recovery.recover()
            break
        except SchedulerCrash:
            # Crashed during recovery: idempotent replay makes a second
            # attempt from the same durable state safe.
            continue
    world.manager = recovered.manager
    world.scheduler = recovered.scheduler
    world.recovery = recovered.harness
    world.crash_reports.append(recovered.report)


def committed_updates(world) -> frozenset:
    """Every ``(source, seqno)`` whose maintenance committed in
    ``world`` (same shape as for :func:`recover_in_place`), across
    crashes: the refs of its engine's install log, which replay
    completes."""
    return frozenset(
        (source, seqno)
        for record in world.engine.install_log
        for source, seqno, _ in record.messages
    )


def run_recovering(world):
    """Drive ``world.scheduler`` to quiescence, surviving injected
    crashes when a recovery harness is armed (including crashes
    injected during recovery itself).  Returns the final scheduler's
    stats."""
    while True:
        try:
            return world.scheduler.run()
        except SchedulerCrash:
            if world.recovery is None:
                raise
            recover_in_place(world)
