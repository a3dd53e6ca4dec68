"""FIG-10 benchmark: schema-change interval sweep.

Paper claims: cost is lowest when all schema changes flood in together
(one correction round, no broken queries), peaks when the interval
approximates one schema-change maintenance time, and settles to pure
maintenance once the interval exceeds it.
"""

from repro.experiments import run_fig10

from benchmarks._helpers import bench_config, full_scale


def test_fig10_sc_interval(benchmark, save_result):
    intervals = (
        (0.0, 3.0, 9.0, 17.0, 23.0, 29.0, 41.0)
        if full_scale()
        else (0.0, 9.0, 17.0, 23.0, 41.0)
    )
    du_count = 200 if full_scale() else 100

    result = benchmark.pedantic(
        run_fig10,
        kwargs={
            "intervals": intervals,
            "du_count": du_count,
            "sc_count": 10,
            "config": bench_config(),
        },
        rounds=1,
        iterations=1,
    )
    save_result(result)

    assert result.consistent
    for name in ("pessimistic", "optimistic"):
        series = dict(zip(result.xs(), result.series(name)))
        aborts = dict(zip(result.xs(), result.series(f"abort_of_{name}")))
        peak_interval = max(series, key=series.get)
        # Shape: the peak sits at an intermediate interval.
        assert 3.0 <= peak_interval <= 29.0
        # Shape: flood-at-once is cheapest (corrected in one round).
        assert series[0.0] <= min(series.values()) * 1.05
        # Shape: past one maintenance time aborts die out.
        assert aborts[41.0] < 0.05 * series[41.0] + 1.0
