"""ABL-1 benchmark: Dyno's cycle-only merge vs blind whole-queue merge.

Section 4.2 argues against merging everything on a broken query: blind
merging loses intermediate view states (fewer, bigger refreshes) and
enlarges the abortable window.
"""

from repro.experiments import run_blind_merge_ablation

from benchmarks._helpers import bench_config, full_scale


def test_ablation_blind_merge(benchmark, save_result):
    du_count = 200 if full_scale() else 80

    result = benchmark.pedantic(
        run_blind_merge_ablation,
        kwargs={
            "du_count": du_count,
            "sc_count": 8,
            "sc_interval": 17.0,
            "config": bench_config(),
        },
        rounds=1,
        iterations=1,
    )
    save_result(result)

    assert result.consistent
    dyno = result.points[0].values
    blind = result.points[1].values
    # Dyno preserves strictly more intermediate view states.
    assert dyno["view_refreshes"] > blind["view_refreshes"]
