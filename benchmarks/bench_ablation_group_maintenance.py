"""ABL-8 benchmark: adaptive group maintenance, batching on vs off.

The batch policy scans the corrected UMQ for maximal safe runs of
SC-free units and merges each into one voluntary batch, coalescing
same-relation deltas so the batch pays one probe sweep per touched
relation instead of one maintenance round per message.  This bench runs
a DU-heavy stream against the two-subview multi-view testbed under both
conflict strategies (serial) plus a 4-worker parallel arm, batching off
and on, and asserts the PR's acceptance bar: at the heaviest stream
batching buys at least a 2x reduction in both maintenance rounds and
total source round trips, while per-view extents and committed-update
sets stay byte-identical between the arms.
"""

from repro.experiments import WarehouseConfig, run_group_maintenance_ablation
from repro.experiments.ablations import TWO_VIEW_SPANS

from benchmarks._helpers import full_scale


def test_ablation_group_maintenance_rounds(benchmark, save_result):
    kwargs = (
        {
            "du_counts": (120, 240, 480),
            "config": WarehouseConfig(
                tuples_per_relation=400, spans=TWO_VIEW_SPANS
            ),
        }
        if full_scale()
        else {}
    )
    result = benchmark.pedantic(
        run_group_maintenance_ablation,
        kwargs=kwargs,
        rounds=1,
        iterations=1,
    )
    save_result(result)
    # Per-view extent + committed (source, seqno) identity is verified
    # inside the run for every (strategy, du_count, workers) arm.
    assert result.consistent
    heaviest = result.points[-1].values
    for label in ("pess", "opt", "par"):
        assert heaviest[f"{label}_round_speedup"] >= 2.0
        assert heaviest[f"{label}_trip_speedup"] >= 2.0
    # Fewer rounds must show up as virtual-clock savings too.
    assert heaviest["pess_cost_speedup"] > 1.0
    # Grouping actually fired.
    assert heaviest["batches_formed"] > 0
    assert heaviest["grouped_messages"] > 0
