"""ABL-7 benchmark: snapshot cache round trips and cost, on vs off.

The self-maintenance fast path answers repeated maintenance probes from
a version-stamped snapshot cache, patching stale entries forward with
the committed gap deltas instead of re-visiting the source.  This bench
runs a hot-key DU-heavy stream under both conflict strategies (serial)
plus a 4-worker parallel arm, with the cache off and on, and asserts
the PR's acceptance bar: at the DU-heavy end of the sweep the cache
buys at least a 1.5x reduction in total source round trips and a lower
virtual-clock total, while the final extents and committed-update sets
stay byte-identical between the arms.
"""

from repro.experiments import WarehouseConfig, run_snapshot_cache_ablation

from benchmarks._helpers import full_scale


def test_ablation_snapshot_cache_round_trips(benchmark, save_result):
    kwargs = (
        {
            "du_counts": (120, 240, 480),
            "config": WarehouseConfig(tuples_per_relation=400),
        }
        if full_scale()
        else {}
    )
    result = benchmark.pedantic(
        run_snapshot_cache_ablation,
        kwargs=kwargs,
        rounds=1,
        iterations=1,
    )
    save_result(result)
    # Extent + committed (source, seqno) identity is verified inside
    # the run for every (strategy, du_count) pair.
    assert result.consistent
    heaviest = result.points[-1].values
    for label in ("pess", "opt", "parallel"):
        assert heaviest[f"{label}_trip_speedup"] >= 1.5
    # Trips saved must show up as virtual-clock savings too.
    assert heaviest["pess_cost_speedup"] > 1.0
    assert heaviest["opt_cost_speedup"] > 1.0
    # The fast path actually fired, and stale entries were patched
    # forward rather than re-fetched.
    assert heaviest["cache_hits"] > 0
    assert heaviest["patched_answers"] > 0
