"""FIG-11 benchmark: number-of-schema-changes sweep at 25 s intervals.

Paper claim: more schema changes introduce more conflicts among
themselves, so the abort cost (and the total) grows with their number.
"""

from repro.experiments import run_fig11

from benchmarks._helpers import bench_config, full_scale


def test_fig11_sc_count(benchmark, save_result):
    sc_counts = (5, 10, 15, 20, 25) if full_scale() else (5, 10, 15)
    du_count = 200 if full_scale() else 100

    result = benchmark.pedantic(
        run_fig11,
        kwargs={
            "sc_counts": sc_counts,
            "du_count": du_count,
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
        # Shape: both total and abort cost grow with the SC count.
        assert totals[-1] > totals[0]
        assert aborts[-1] > aborts[0]
