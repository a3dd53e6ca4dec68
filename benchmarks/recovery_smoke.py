"""CI recovery smoke: a bounded crash-point sweep with a stats artifact.

Runs a small mixed workload once per registered crash point — serial
points on the serial scheduler, ``parallel.*`` points on a 2-worker
executor, ``recover.replay`` via a staged crash-during-recovery — and
checks crash-anywhere equivalence against a journal-off oracle: the
recovered extent and committed (source, seqno) set must match, every
targeted point must actually have fired, and the engine's install log
(what the read front end's timeline is built from) must hold every
unit the journal saw installed, in every epoch.  One sharded arm (4
shards, one crash per shard) checks what the union-of-shards compares
cannot see: every recovered shard maintains exactly what its uncrashed
twin maintains (a recovered shard keeps its delivery filter).  Writes
per-point journal/checkpoint/replay statistics and both sharded runs'
per-shard counters to ``benchmarks/results/recovery_stats.json``
(uploaded by CI alongside the benchmark results)::

    PYTHONPATH=src python benchmarks/recovery_smoke.py

Exit status 0 iff every point fired, recovered to the oracle state and
left no installed unit out of the install log.
This is a smoke, not the proof — the exhaustive sweep (every point x
strategy x cache x batching x workers 1..8) lives in
``tests/recovery/test_crash_anywhere.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.core.strategies import PESSIMISTIC
from repro.experiments.testbed import build_sharded_testbed, build_testbed
from repro.recovery import (
    CRASH_POINTS,
    CrashPlan,
    SchedulerCrash,
    recover_in_place,
)

RESULTS_DIR = Path(__file__).parent / "results"
STATS_PATH = RESULTS_DIR / "recovery_stats.json"

TUPLES = 120
DU_COUNT = 12
SC_COUNT = 2
#: per-shard counters a crash must not move, and those only recorded
SHARD_IDENTICAL = ("maintained_updates", "router_delivered", "router_dropped")
SHARD_REPORTED = ("recoveries", "journal_entries", "checkpoints_taken")


def _testbed(workers: int | None, **recovery_kwargs):
    testbed = build_testbed(
        PESSIMISTIC,
        tuples_per_relation=TUPLES,
        parallel_workers=workers,
        **recovery_kwargs,
    )
    testbed.engine.schedule_workload(
        testbed.random_du_workload(DU_COUNT, start=0.0, interval=0.5)
    )
    testbed.engine.schedule_workload(
        testbed.schema_change_workload(SC_COUNT, start=1.0, interval=25.0)
    )
    return testbed


def _state(testbed):
    (manager,) = testbed.manager.view_managers()
    extent = tuple(sorted(map(tuple, manager.mv.extent.rows())))
    return extent, testbed.committed_updates()


def _install_log_short(testbed) -> int:
    """Installed refs the journal's history holds and the engine's
    install log (which ``committed_updates()`` reads) does not."""
    journaled = {
        ref for unit in testbed.recovery.installed_units for ref in unit
    }
    return len(journaled - testbed.committed_updates())


def _run_replay_crash(workers: int | None):
    """Stage ``recover.replay``: crash mid-run, then crash the replay."""
    testbed = _testbed(
        workers,
        journal=True,
        checkpoint_every=100,  # keep the journal long enough to replay
        crash_plan=CrashPlan("serial.pre_commit", 2),
    )
    try:
        testbed.scheduler.run()
    except SchedulerCrash:
        pass
    testbed.engine.crash_injector.arm(CrashPlan("recover.replay", 1))
    recover_in_place(testbed)  # retries the crashed replay
    testbed.run()
    return testbed


def _sharded_arm(failures: list[str]) -> dict:
    """4 shards, each crashed once, against the no-crash twin: equal
    per-shard ``maintained_updates`` and delivery counts."""
    runs = {}
    for name, crash_plan in (
        ("uncrashed", None),
        ("crashed", CrashPlan("serial.post_commit", 3)),
    ):
        testbed = build_sharded_testbed(
            PESSIMISTIC,
            shards=4,
            tuples_per_relation=TUPLES,
            journal=True,
            checkpoint_every=2,
            crash_plan=crash_plan,
        )
        testbed.schedule_du_workload(4 * DU_COUNT, start=0.0, interval=0.5)
        testbed.schedule_sc_workload(SC_COUNT, start=1.0, interval=25.0)
        testbed.run()
        if not testbed.check_consistency():
            failures.append(f"sharded {name}: diverged from recompute")
        runs[name] = {
            str(shard.shard_id): {
                counter: getattr(shard.engine.metrics, counter)
                for counter in SHARD_IDENTICAL + SHARD_REPORTED
            }
            for shard in testbed.warehouse.shards
        }
    for shard_id, crashed in runs["crashed"].items():
        twin = runs["uncrashed"][shard_id]
        if crashed["recoveries"] != 1:
            failures.append(f"shard {shard_id}: crash never fired")
        for counter in SHARD_IDENTICAL:
            if crashed[counter] != twin[counter]:
                failures.append(
                    f"shard {shard_id}: {counter} {crashed[counter]} "
                    f"after recovery, {twin[counter]} without the crash"
                )
        print(
            f"shard {shard_id:<17} recoveries={crashed['recoveries']} "
            f"maintained={crashed['maintained_updates']} "
            f"(uncrashed {twin['maintained_updates']})"
        )
    return runs


def main() -> int:
    oracles = {}
    for workers in (None, 2):
        oracles[workers] = _state(
            _run(_testbed(workers, journal=False))
        )

    stats, failures = [], []
    for point in sorted(CRASH_POINTS):
        workers = 2 if point.startswith("parallel.") else None
        if point == "recover.replay":
            testbed = _run_replay_crash(workers)
        else:
            testbed = _testbed(
                workers,
                journal=True,
                checkpoint_every=2,
                crash_plan=CrashPlan(point, 1),
            )
            testbed.run()
        injector = testbed.engine.crash_injector
        fired = (
            injector is not None
            and injector.fired is not None
            and injector.fired.point == point
        )
        match = _state(testbed) == oracles[workers]
        short = _install_log_short(testbed)
        metrics = testbed.metrics
        stats.append(
            {
                "point": point,
                "workers": workers or 1,
                "fired": fired,
                "match": match,
                "install_log_short": short,
                "recoveries": metrics.recoveries,
                "journal_entries": metrics.journal_entries,
                "journal_bytes": metrics.journal_bytes,
                "checkpoints_taken": metrics.checkpoints_taken,
                "replayed_entries": metrics.replayed_entries,
            }
        )
        if not fired:
            failures.append(f"{point}: crash point never fired")
        if not match:
            failures.append(f"{point}: recovered state diverged")
        if short:
            failures.append(
                f"{point}: install log misses {short} installed update(s)"
            )
        print(
            f"{point:<22} fired={fired} match={match} "
            f"install_log_short={short} "
            f"recoveries={metrics.recoveries} "
            f"replayed={metrics.replayed_entries}"
        )

    sharded = _sharded_arm(failures)

    RESULTS_DIR.mkdir(exist_ok=True)
    STATS_PATH.write_text(
        json.dumps(
            {"points": stats, "sharded": sharded, "failures": failures},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {STATS_PATH} ({len(stats)} point(s))")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"all {len(stats)} crash points fired and recovered to oracle")
    return 0


def _run(testbed):
    testbed.run()
    return testbed


if __name__ == "__main__":
    sys.exit(main())
