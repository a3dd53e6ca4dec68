"""ABL-11 benchmark: sharded multi-scheduler warehouse + read serving.

Partitioning the four overlapping subviews across scheduler shards
gives each shard its own UMQ, detection substrate and engine world,
with the footprint router delivering only the updates a shard's views
reference — so aggregate makespan (completion time of the slowest
shard, the scale-out headline) drops superlinearly in the delivered
work while the extents stay byte-identical to the 1-shard oracle, a
guarantee the run re-verifies under the optimistic strategy, a fault
plan, a crash plan with per-shard journals, a 2-worker parallel
executor, and an SC stream crossing the cross-shard barrier.  The read
front end replays >= 10^6 point/scan reads against the recorded
install timelines at both consistency levels and reports p50/p99
latency plus staleness.

Acceptance bar asserted here: >= 2x pessimistic aggregate-makespan
speedup at 4 shards and >= 10^6 reads served per shard count.
"""

from repro.experiments import run_sharding_ablation, sharded_config

from benchmarks._helpers import full_scale


def test_ablation_sharding_makespan_and_reads(benchmark, save_result):
    kwargs = (
        {}
        if full_scale()
        else {
            "config": sharded_config(tuples_per_relation=120),
            "du_count": 96,
            "reads": 1_000_000,
        }
    )
    result = benchmark.pedantic(
        run_sharding_ablation,
        kwargs=kwargs,
        rounds=1,
        iterations=1,
    )
    save_result(result)
    # Extent + committed identity vs the 1-shard oracle is verified
    # inside the run for every arm (strategies x faults x crash x
    # workers x SC barrier).
    assert result.consistent
    heaviest = result.points[-1].values
    assert heaviest["pess_makespan_speedup"] >= 2.0
    assert heaviest["opt_makespan_speedup"] >= 2.0
    assert heaviest["reads_served"] >= 1_000_000
    # The router actually filtered (the speedup is not vacuous).
    assert heaviest["router_dropped"] > 0
    # Sharding must not lose or duplicate maintenance work: the summed
    # serial busy time stays within 1% of the 1-shard arm's.
    single = result.points[0].values
    assert heaviest["pess_busy_time"] == single["pess_busy_time"] or (
        abs(heaviest["pess_busy_time"] - single["pess_busy_time"])
        / single["pess_busy_time"]
        < 0.01
    )
