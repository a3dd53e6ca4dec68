"""Crash recovery for the warehouse (durable journal + checkpoints).

The warehouse — UMQ, dependency substrate, materialized extents,
in-flight workers, snapshot cache — is volatile; the sources and their
update logs are not (they are autonomous systems of their own).  This
package makes the warehouse crash-recoverable:

* :mod:`.journal` — write-ahead maintenance journal (UMQ mutations,
  per-unit install and skip entries holding only what replay reads)
  through pluggable sinks;
* :mod:`.checkpoint` — periodic snapshots of extents + resolved
  history + cache stamps, with journal truncation;
* :mod:`.crash` — seeded crash plans killing the scheduler at named
  points woven through the maintenance loops;
* :mod:`.recover` — :func:`~repro.recovery.recover.simulate_crash` and
  :func:`~repro.recovery.recover.recover`, with idempotent replay so a
  crash during recovery is also safe (replay derives the committed
  watermark and completes the engine's install log, which
  :func:`~repro.recovery.recover.committed_updates` reads); plus the
  one arming function (:func:`~repro.recovery.recover.arm_recovery`)
  and the one crash -> recover -> swap loop
  (:func:`~repro.recovery.recover.recover_in_place`,
  :func:`~repro.recovery.recover.run_recovering`) every owner of a
  warehouse stack calls.
"""

from .checkpoint import (
    CheckpointStore,
    FileCheckpointStore,
    MemoryCheckpointStore,
)
from .codec import (
    definition_from_json,
    definition_to_json,
    delta_from_json,
    delta_to_json,
    table_from_json,
    table_to_json,
)
from .crash import CRASH_POINTS, CrashInjector, CrashPlan, SchedulerCrash
from .journal import (
    FileJournalSink,
    JournalSink,
    MaintenanceJournal,
    MemoryJournalSink,
)
from .recover import (
    RecoveredWarehouse,
    RecoveryError,
    RecoveryHarness,
    RecoveryReport,
    arm_recovery,
    committed_updates,
    recover,
    recover_in_place,
    run_recovering,
    simulate_crash,
)

__all__ = [
    "CRASH_POINTS",
    "CheckpointStore",
    "CrashInjector",
    "CrashPlan",
    "FileCheckpointStore",
    "FileJournalSink",
    "JournalSink",
    "MaintenanceJournal",
    "MemoryCheckpointStore",
    "MemoryJournalSink",
    "RecoveredWarehouse",
    "RecoveryError",
    "RecoveryHarness",
    "RecoveryReport",
    "SchedulerCrash",
    "arm_recovery",
    "committed_updates",
    "definition_from_json",
    "definition_to_json",
    "delta_from_json",
    "delta_to_json",
    "recover",
    "recover_in_place",
    "run_recovering",
    "simulate_crash",
    "table_from_json",
    "table_to_json",
]
