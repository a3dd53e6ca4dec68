"""FIG-12 benchmark: number-of-data-updates sweep with 5 schema changes.

Paper claim: the abort cost is not significantly affected by the data
updates — schema changes are the cause of aborts — while the total
maintenance cost grows with the update volume.
"""

from repro.experiments import run_fig12

from benchmarks._helpers import bench_config, full_scale


def test_fig12_du_count(benchmark, save_result):
    du_counts = (200, 300, 400, 500, 600) if full_scale() else (200, 400, 600)

    result = benchmark.pedantic(
        run_fig12,
        kwargs={
            "du_counts": du_counts,
            "config": bench_config(),
        },
        rounds=1,
        iterations=1,
    )
    save_result(result)

    assert result.consistent
    for name in ("pessimistic", "optimistic"):
        totals = result.series(name)
        aborts = result.series(f"abort_of_{name}")
        # Shape: total grows with DU volume...
        assert totals[-1] > totals[0]
        # ...while the abort cost stays in one band.
        band = max(max(aborts), 1.0)
        assert max(aborts) - min(aborts) < 0.5 * band
