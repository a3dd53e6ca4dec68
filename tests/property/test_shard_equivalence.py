"""The sharded warehouse is observationally equivalent to one scheduler.

Shard worlds are independent full warehouses whose routers filter only
UMQ delivery, and per-shard legal orders are Theorem 2 legal orders
restricted to each shard's footprint — so for ANY shard count, broken-
query strategy, worker count, fault plan or crash plan, the final
per-view extents and the union of committed (source, seqno) sets must
be byte-identical to the 1-shard oracle.  Checked end to end on
randomized DU/SC streams.  Every shard world is also judged by the
sqlite extent oracle (``tests/extent_oracle.py``): at each install
unless a crash plan replays installs, and at quiescence.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.strategies import OPTIMISTIC, PESSIMISTIC
from repro.experiments.testbed import build_sharded_testbed
from repro.faults.plan import FaultPlan
from repro.recovery import CrashPlan
from tests.extent_oracle import check_all, watch

strategies = st.sampled_from([PESSIMISTIC, OPTIMISTIC])


def _run(
    strategy,
    shards,
    seed,
    du_count,
    sc_count=0,
    workers=None,
    fault_seed=None,
    crash_seed=None,
    tmp_path=None,
):
    kwargs = {}
    if fault_seed is not None:
        kwargs["fault_plan"] = FaultPlan.random(
            fault_seed,
            sources=("src1", "src2", "src3"),
            horizon=2.0,
            max_crashes=1,
            crash_length=(0.1, 0.4),
        )
    if crash_seed is not None:
        kwargs["journal"] = True
        kwargs["crash_plan"] = CrashPlan.random(crash_seed)
        kwargs["journal_dir"] = tmp_path / f"shards-{shards}"
    testbed = build_sharded_testbed(
        strategy,
        shards=shards,
        tuples_per_relation=30,
        parallel_workers=workers,
        **kwargs,
    )
    oracles = watch(testbed, per_install=crash_seed is None)
    testbed.schedule_du_workload(
        du_count, start=0.05, interval=0.05, seed=seed
    )
    if sc_count:
        testbed.schedule_sc_workload(
            sc_count, start=0.6, interval=4.0, seed=seed + 4
        )
    testbed.run()
    assert testbed.check_consistency()
    check_all(oracles)
    return testbed.extent_rows(), testbed.committed_updates()


@given(strategies, st.integers(2, 4), st.integers(0, 40), st.integers(8, 24))
@settings(max_examples=10, deadline=None)
def test_du_streams_match_oracle(strategy, shards, seed, du_count):
    oracle = _run(strategy, 1, seed, du_count)
    assert _run(strategy, shards, seed, du_count) == oracle


@given(strategies, st.integers(2, 4), st.integers(0, 20))
@settings(max_examples=6, deadline=None)
def test_sc_streams_cross_the_barrier_equivalently(strategy, shards, seed):
    oracle = _run(strategy, 1, seed, 16, sc_count=2)
    assert _run(strategy, shards, seed, 16, sc_count=2) == oracle


@given(st.integers(2, 4), st.integers(0, 20), st.sampled_from([2, 3]))
@settings(max_examples=6, deadline=None)
def test_parallel_workers_per_shard_match_oracle(shards, seed, workers):
    oracle = _run(PESSIMISTIC, 1, seed, 16, workers=workers)
    assert _run(PESSIMISTIC, shards, seed, 16, workers=workers) == oracle


@given(st.integers(2, 4), st.integers(0, 20), st.integers(1, 12))
@settings(max_examples=6, deadline=None)
def test_transient_faults_match_oracle(shards, seed, fault_seed):
    oracle = _run(PESSIMISTIC, 1, seed, 16, fault_seed=fault_seed)
    assert (
        _run(PESSIMISTIC, shards, seed, 16, fault_seed=fault_seed) == oracle
    )


def test_crash_recovery_matches_oracle_and_uncrashed_run(tmp_path):
    # CrashPlan.random(1) fires at this scale (probed); the recovered
    # sharded run must equal both the crashed 1-shard oracle and the
    # uncrashed base run.
    base = _run(PESSIMISTIC, 1, 9, 20)
    oracle = _run(PESSIMISTIC, 1, 9, 20, crash_seed=1, tmp_path=tmp_path)
    sharded = _run(PESSIMISTIC, 4, 9, 20, crash_seed=1, tmp_path=tmp_path)
    assert oracle == base
    assert sharded == base
