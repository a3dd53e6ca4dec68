"""Chaos squared: source faults *and* warehouse crashes in one run.

The chaos harness of ``test_chaos.py`` throws seeded source-side fault
plans (transients, timeouts, crash windows, link faults) at a two-source
join view; this module additionally kills the *warehouse* mid-run with a
seeded :class:`CrashPlan` and requires the journal/checkpoint recovery
path to compose with the fault machinery: every run must still converge
to exactly the fault-free, crash-free extent.
"""

import pytest

from repro import (
    CrashPlan,
    DataUpdate,
    DyDaSystem,
    FaultPlan,
    OPTIMISTIC,
    PESSIMISTIC,
    RelationSchema,
)
from repro.views.consistency import check_convergence
from tests.builders import aggressive_retry_policy

R = RelationSchema.of("R", ["k", "v"])
Q = RelationSchema.of("Q", ["k", "w"])

# Crash points a serial DyDa run visits (parallel.* are unreachable
# here and would make the sweep vacuous at those seeds).
SERIAL_POINTS = tuple(
    point
    for point in (
        "serial.pre_detect",
        "serial.pre_maintain",
        "serial.pre_commit",
        "serial.post_commit",
        "install.pre_journal",
        "install.post_journal",
        "install.post_apply",
        "checkpoint.pre",
        "checkpoint.mid",
        "checkpoint.post",
    )
)


def run_scenario(strategy, fault_plan=None, policy=None, crash_plan=None):
    system = DyDaSystem(
        strategy=strategy,
        fault_plan=fault_plan,
        retry_policy=policy,
        crash_plan=crash_plan,
        checkpoint_every=2,
    )
    a = system.add_source("a")
    b = system.add_source("b")
    a.create_relation(R, [("1", "x")])
    b.create_relation(Q, [("1", "y")])
    system.define_view(
        "CREATE VIEW V AS SELECT R.k, R.v, Q.w FROM a.R R, b.Q Q "
        "WHERE R.k = Q.k"
    )
    for i in range(5):
        system.schedule(
            i * 0.5, "a", DataUpdate.insert(R, [(str(i + 2), "z")])
        )
        system.schedule(
            i * 0.5 + 0.1, "b", DataUpdate.insert(Q, [(str(i + 2), "w")])
        )
    system.run()
    return system


@pytest.mark.parametrize(
    "strategy", [PESSIMISTIC, OPTIMISTIC], ids=["pessimistic", "optimistic"]
)
def test_source_faults_and_warehouse_crashes_compose(strategy):
    baseline = run_scenario(strategy)
    assert baseline.check().consistent
    expected = sorted(baseline.extent().rows())

    crashes_survived = 0
    faults_injected = 0
    for seed in range(12):
        fault_plan = FaultPlan.random(seed, ["a", "b"], horizon=5.0)
        crash_plan = CrashPlan.random(
            seed, points=SERIAL_POINTS, max_hit=4
        )
        system = run_scenario(
            strategy,
            fault_plan,
            aggressive_retry_policy(),
            crash_plan,
        )
        key = f"seed {seed}: {fault_plan.describe()} + {crash_plan.describe()}"

        report = check_convergence(system.managers[0])
        assert report.consistent, f"{key}: {report.summary()}"
        assert sorted(system.extent().rows()) == expected, key

        # Neither fault family may masquerade as the other: no broken
        # queries from a DU-only stream, crashes surface only as
        # recoveries.
        assert system.metrics.broken_queries == 0, key
        assert system.stats.genuine_broken_flags == 0, key
        assert len(system.crash_reports) == system.metrics.recoveries

        crashes_survived += len(system.crash_reports)
        faults = system.fault_stats
        faults_injected += (
            faults.injected_transients
            + faults.injected_timeouts
            + faults.crash_rejections
        )

    # Both chaos dimensions actually bit during the sweep.
    assert crashes_survived > 0
    assert faults_injected > 0


@pytest.mark.parametrize(
    "strategy", [PESSIMISTIC, OPTIMISTIC], ids=["pessimistic", "optimistic"]
)
def test_crash_during_source_outage_window(strategy):
    """A warehouse crash while a source is inside a fault crash-window
    (the source itself is down) must still recover and converge: the
    re-enqueued updates just retry against the recovering source."""
    baseline = run_scenario(strategy)
    expected = sorted(baseline.extent().rows())
    for seed in (2, 5, 9):
        fault_plan = FaultPlan.random(
            seed, ["a", "b"], horizon=5.0, transient_rate=0.4
        )
        system = run_scenario(
            strategy,
            fault_plan,
            aggressive_retry_policy(),
            CrashPlan("serial.pre_commit", 2),
        )
        assert system.check().consistent, f"seed {seed}"
        assert sorted(system.extent().rows()) == expected, f"seed {seed}"
        assert len(system.crash_reports) >= 1, f"seed {seed}"
