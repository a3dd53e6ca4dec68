"""Property-style chaos harness (the ISSUE's acceptance experiment).

Fifty seeded random fault plans — transients, timeouts, crash windows,
link delays and drops — are thrown at a two-source join view under both
the pessimistic and the optimistic strategy.  Every faulty run must
converge to exactly the fault-free extent, no transient failure may ever
surface as a broken-query flag, and faults must make maintenance
strictly more expensive in aggregate (retries, backoff and timeouts are
charged to the virtual clock, never hidden).
"""

import pytest

from repro import (
    DataUpdate,
    DyDaSystem,
    FaultPlan,
    OPTIMISTIC,
    PESSIMISTIC,
    RelationSchema,
    RetryPolicy,
)
from repro.views.consistency import check_convergence
from tests.builders import aggressive_retry_policy

R = RelationSchema.of("R", ["k", "v"])
Q = RelationSchema.of("Q", ["k", "w"])

SEEDS = range(25)  # x2 strategies = 50 fault plans


def run_scenario(strategy, plan=None, policy=None):
    system = DyDaSystem(
        strategy=strategy, fault_plan=plan, retry_policy=policy
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
def test_chaos_converges_to_fault_free_extent(strategy):
    baseline = run_scenario(strategy)
    report = baseline.check()
    assert report.consistent, report.summary()
    expected = sorted(baseline.extent().rows())
    base_cost = baseline.now

    total_faults = 0
    total_transients = 0
    total_faulty_cost = 0.0
    for seed in SEEDS:
        plan = FaultPlan.random(seed, ["a", "b"], horizon=5.0)
        system = run_scenario(strategy, plan, aggressive_retry_policy())
        manager = system.managers[0]

        # Convergence: final extent equals the fault-free run exactly.
        report = check_convergence(manager)
        assert report.consistent, (
            f"seed {seed}: {report.summary()} under {plan.describe()}"
        )
        assert sorted(system.extent().rows()) == expected, f"seed {seed}"

        # Faults are outages, never anomalies: a DU-only stream must not
        # produce a single broken-query flag, genuine or false.
        stats = system.stats
        assert system.metrics.broken_queries == 0, f"seed {seed}"
        assert stats.genuine_broken_flags == 0, f"seed {seed}"
        assert system.metrics.aborts == 0, f"seed {seed}"

        # Determinism: the same seed reproduces the same plan.
        assert FaultPlan.random(seed, ["a", "b"], horizon=5.0) == plan

        faults = system.fault_stats
        total_faults += (
            faults.injected_transients
            + faults.injected_timeouts
            + faults.crash_rejections
        )
        total_transients += system.metrics.transient_failures
        total_faulty_cost += system.now

    # The sweep actually exercised the fault machinery...
    assert total_faults > 0
    assert total_transients > 0
    # ...and honesty: faulty maintenance is strictly more expensive.
    assert total_faulty_cost > len(list(SEEDS)) * base_cost


@pytest.mark.parametrize(
    "strategy", [PESSIMISTIC, OPTIMISTIC], ids=["pessimistic", "optimistic"]
)
def test_chaos_with_exhaustion_and_quarantine(strategy):
    """A stingy retry budget forces quarantine rounds mid-chaos; the
    degradation path must still land on the fault-free extent."""
    policy = RetryPolicy(
        max_attempts=2,
        base_backoff=0.05,
        jitter=0.0,
        deadline=0.0,
        quarantine_probe=0.5,
    )
    baseline = run_scenario(strategy)
    expected = sorted(baseline.extent().rows())

    quarantines = 0
    for seed in (2, 3, 5, 8, 9):  # dense-transient plans
        plan = FaultPlan.random(
            seed, ["a", "b"], horizon=5.0, transient_rate=0.4
        )
        system = run_scenario(strategy, plan, policy)
        assert system.check().consistent, f"seed {seed}"
        assert sorted(system.extent().rows()) == expected, f"seed {seed}"
        assert system.stats.genuine_broken_flags == 0, f"seed {seed}"
        assert (
            system.stats.false_flags_avoided
            == len(system.stats.quarantine_events)
        )
        quarantines += len(system.stats.quarantine_events)
    assert quarantines > 0  # the sweep hit the quarantine path
