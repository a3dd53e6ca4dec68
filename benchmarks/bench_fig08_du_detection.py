"""FIG-8 benchmark: data-update processing with vs without detection.

Paper claim: the two lines are nearly identical and linear — Dyno's
detection adds almost unobservable overhead to DU-only streams.
"""

from repro.experiments import run_fig08

from benchmarks._helpers import bench_config, full_scale


def test_fig08_du_detection(benchmark, save_result):
    if full_scale():
        du_counts = (500, 1000, 1500, 2000, 2500, 3000)
    else:
        du_counts = (250, 500, 1000)

    result = benchmark.pedantic(
        run_fig08,
        kwargs={
            "du_counts": du_counts,
            "config": bench_config(),
        },
        rounds=1,
        iterations=1,
    )
    save_result(result)

    assert result.consistent
    with_detection = result.series("with_detection")
    without = result.series("without_detection")
    # Shape: detection overhead < 1% everywhere.
    for with_value, without_value in zip(with_detection, without):
        assert with_value - without_value < 0.01 * without_value + 0.01
    # Shape: linear in the number of updates.
    ratio = with_detection[-1] / with_detection[0]
    expected = du_counts[-1] / du_counts[0]
    assert 0.7 * expected < ratio < 1.3 * expected
