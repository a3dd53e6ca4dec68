"""The one arming function and the one crash -> recover -> swap loop
(``repro.recovery.arm_recovery`` / ``recover_in_place`` /
``run_recovering``) that testbeds, shards and the DyDa facade share."""

from pathlib import Path

import pytest

import repro
from repro.core.strategies import PESSIMISTIC
from repro.experiments.testbed import build_testbed
from repro.recovery import (
    CrashInjector,
    CrashPlan,
    SchedulerCrash,
    recover_in_place,
    run_recovering,
)


def _loaded(**knobs):
    testbed = build_testbed(PESSIMISTIC, tuples_per_relation=20, **knobs)
    testbed.engine.schedule_workload(
        testbed.random_du_workload(8, start=0.0, interval=0.01, seed=1)
    )
    return testbed


def test_crash_without_a_harness_propagates():
    testbed = _loaded()
    testbed.engine.crash_injector = CrashInjector(
        CrashPlan("serial.pre_maintain", 2)
    )
    scheduler = testbed.scheduler
    with pytest.raises(SchedulerCrash):
        run_recovering(testbed)
    assert testbed.scheduler is scheduler and not testbed.crash_reports


def test_run_recovering_swaps_the_recovered_stack_in():
    oracle = _loaded(journal=True)
    oracle.run()
    testbed = _loaded(crash_plan=CrashPlan("serial.pre_maintain", 2))
    dead = (testbed.manager, testbed.scheduler, testbed.recovery)
    stats = run_recovering(testbed)
    assert stats is testbed.scheduler.stats
    assert len(testbed.crash_reports) == 1
    for before, after in zip(
        dead, (testbed.manager, testbed.scheduler, testbed.recovery)
    ):
        assert before is not after
    assert testbed.recovery.scheduler is testbed.scheduler
    assert testbed.extent_rows() == oracle.extent_rows()
    assert testbed.committed_updates() == oracle.committed_updates()


def test_recover_in_place_retries_a_crash_during_replay():
    testbed = _loaded(
        checkpoint_every=100, crash_plan=CrashPlan("serial.pre_detect", 5)
    )
    with pytest.raises(SchedulerCrash):
        testbed.scheduler.run()
    testbed.engine.crash_injector.arm(CrashPlan("recover.replay", 2))
    recover_in_place(testbed)
    assert testbed.engine.crash_injector.fired.point == "recover.replay"
    assert len(testbed.crash_reports) == 1
    testbed.run()
    assert testbed.check_consistency()


def test_arming_creates_a_missing_journal_directory(tmp_path):
    directory = tmp_path / "not" / "yet"
    testbed = _loaded(journal=True, journal_dir=str(directory))
    testbed.run()
    assert (directory / "journal.jsonl").exists()
    assert (directory / "checkpoint.json").exists()


def test_the_crash_loop_is_written_once():
    """Only :mod:`repro.recovery` tears a warehouse down and calls
    ``recover()``; every owner of a stack goes through its helpers."""
    package = Path(repro.__file__).parent
    callers = {
        path.relative_to(package).as_posix()
        for path in package.rglob("*.py")
        if "simulate_crash(" in path.read_text()
        or ".recover()" in path.read_text()
    }
    assert callers == {"recovery/recover.py"}
