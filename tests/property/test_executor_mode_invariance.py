"""The compiled kernel is observationally invisible to the simulation.

The kernel behind :func:`repro.relational.execute` is a wall-clock
optimization only: virtual costs are charged from the cost model, so a
full Dyno run — any strategy, with faults, with parallel workers, with
the sharded coordinator, with schema changes conflicting mid-stream —
must produce the identical final view extent, the identical committed
``(source, seqno)`` set *and the identical final virtual clock* whether
the compiled plans or the naive oracle (bound by
``tests/kernel_oracle.naive_kernel()``) evaluate every query.  This is
the run-level face of the per-query equivalence proven in
``test_executor_equivalence.py``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.strategies import OPTIMISTIC, PESSIMISTIC
from repro.experiments.testbed import build_sharded_testbed, build_testbed
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.views.consistency import check_convergence
from tests.kernel_oracle import kernel

strategies = st.sampled_from([PESSIMISTIC, OPTIMISTIC])


def _run(
    mode,
    strategy,
    seed,
    du_count,
    sc_count,
    workers=None,
    fault_seed=None,
):
    with kernel(mode):
        return _drive(strategy, seed, du_count, sc_count, workers, fault_seed)


def _drive(strategy, seed, du_count, sc_count, workers, fault_seed):
    testbed = build_testbed(
        strategy, tuples_per_relation=30, parallel_workers=workers
    )
    if fault_seed is not None:
        plan = FaultPlan.random(
            fault_seed,
            sources=list(testbed.engine.sources),
            horizon=2.0,
            max_crashes=1,
            crash_length=(0.1, 0.5),
        )
        testbed.engine.install_faults(FaultInjector(plan))
    testbed.engine.schedule_workload(
        testbed.random_du_workload(
            du_count, start=0.0, interval=0.01, seed=seed, key_domain=8
        )
    )
    if sc_count:
        testbed.engine.schedule_workload(
            testbed.schema_change_workload(
                sc_count, start=0.05, interval=0.07, seed=seed + 1
            )
        )
    testbed.run()
    extent = testbed.extent_rows()["V"]
    committed = testbed.committed_updates()
    return testbed, extent, committed, testbed.metrics.elapsed


def assert_invariant(arm_kwargs):
    naive = _run("naive", **arm_kwargs)
    compiled = _run("compiled", **arm_kwargs)
    assert compiled[1] == naive[1]  # extent
    assert compiled[2] == naive[2]  # committed (source, seqno) set
    assert compiled[3] == naive[3]  # final virtual clock, bit-identical
    report = check_convergence(compiled[0].manager.manager_for("V"))
    assert report.consistent, report.summary()


@given(
    strategy=strategies,
    seed=st.integers(min_value=0, max_value=10_000),
    du_count=st.integers(min_value=1, max_value=20),
    sc_count=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=20, deadline=None)
def test_mode_invariance_serial(strategy, seed, du_count, sc_count):
    assert_invariant(
        dict(
            strategy=strategy,
            seed=seed,
            du_count=du_count,
            sc_count=sc_count,
        )
    )


@given(
    strategy=strategies,
    seed=st.integers(min_value=0, max_value=10_000),
    workers=st.integers(min_value=2, max_value=6),
    du_count=st.integers(min_value=1, max_value=12),
    sc_count=st.integers(min_value=0, max_value=2),
    faulted=st.booleans(),
)
@settings(max_examples=10, deadline=None)
def test_mode_invariance_parallel_and_faulted(
    strategy, seed, workers, du_count, sc_count, faulted
):
    assert_invariant(
        dict(
            strategy=strategy,
            seed=seed,
            du_count=du_count,
            sc_count=sc_count,
            workers=workers,
            fault_seed=seed + 77 if faulted else None,
        )
    )


def _run_sharded(mode, strategy, seed, du_count, sc_count):
    """Two shard worlds of span subviews behind the coordinator."""
    with kernel(mode):
        testbed = build_sharded_testbed(
            strategy, shards=2, tuples_per_relation=30
        )
        testbed.schedule_du_workload(
            du_count, start=0.0, interval=0.01, seed=seed, key_domain=8
        )
        if sc_count:
            testbed.schedule_sc_workload(
                sc_count, start=0.05, interval=0.07, seed=seed + 1
            )
        testbed.run()
        assert testbed.check_consistency()
    return (
        testbed.extent_rows(),
        testbed.committed_updates(),
        testbed.shard_clocks(),
    )


@given(
    strategy=strategies,
    seed=st.integers(min_value=0, max_value=10_000),
    du_count=st.integers(min_value=2, max_value=12),
    sc_count=st.integers(min_value=0, max_value=2),
)
@settings(max_examples=8, deadline=None)
def test_mode_invariance_sharded(strategy, seed, du_count, sc_count):
    arm = (strategy, seed, du_count, sc_count)
    assert _run_sharded("compiled", *arm) == _run_sharded("naive", *arm)
