"""ABL-9 benchmark: crash-recovery overhead vs checkpoint interval.

A fig12-style mixed workload runs journal-off (oracle), journal-on
(overhead measurement), and journal-on + a mid-run warehouse crash
(replay measurement) at each checkpoint interval.  The run itself
verifies crash-anywhere equivalence — journaled and recovered extents
and committed (source, seqno) sets byte-identical to the oracle, the
virtual clock untouched by durability — and this bench asserts the
overhead shape: journal traffic is interval-independent, checkpoints
grow as the interval tightens, and a tight interval bounds the journal
suffix a crash has to replay.
"""

from repro.experiments import WarehouseConfig, run_recovery_ablation

from benchmarks._helpers import full_scale


def test_ablation_recovery_overhead(benchmark, save_result):
    kwargs = (
        {"du_count": 96, "config": WarehouseConfig(tuples_per_relation=600)}
        if full_scale()
        else {}
    )
    result = benchmark.pedantic(
        run_recovery_ablation,
        kwargs=kwargs,
        rounds=1,
        iterations=1,
    )
    save_result(result)
    # Oracle-equality of every journaled and crashed arm (extent,
    # committed set, virtual clock) is verified inside the run.
    assert result.consistent
    rows = {point.x: point.values for point in result.points}
    tightest, loosest = min(rows), max(rows)
    # The journal itself does not care about the checkpoint interval.
    entries = {row["journal_entries"] for row in rows.values()}
    assert len(entries) == 1
    # Tighter checkpointing: more checkpoints, higher checkpoint cost.
    assert (
        rows[tightest]["checkpoints_taken"]
        > rows[loosest]["checkpoints_taken"]
    )
    assert (
        rows[tightest]["checkpoint_cost"] > rows[loosest]["checkpoint_cost"]
    )
    # ... but no more journal entries to replay after the crash.
    assert (
        rows[tightest]["replayed_entries"]
        <= rows[loosest]["replayed_entries"]
    )
    for row in rows.values():
        # The planned crash fired and was recovered in every row.
        assert row["recoveries"] >= 1.0
        assert row["journal_kb"] > 0.0
