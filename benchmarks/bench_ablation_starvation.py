"""ABL-3 benchmark: progress under an adversarial schema-change stream.

Section 4.4's termination argument: even a continuous stream of
view-conflicting schema changes cannot starve Dyno forever — aborts pile
up only in a narrow interval band, and the system converges once the
stream ends.
"""

from repro.experiments import WarehouseConfig, run_starvation_study

from benchmarks._helpers import full_scale


def test_ablation_starvation(benchmark, save_result):
    intervals = (
        (1.0, 5.0, 15.0, 23.0, 40.0) if full_scale() else (1.0, 15.0, 40.0)
    )
    result = benchmark.pedantic(
        run_starvation_study,
        kwargs={
            "intervals": intervals,
            "stream_length": 12 if full_scale() else 8,
            "du_count": 60 if full_scale() else 30,
            "config": WarehouseConfig(
                tuples_per_relation=1000 if full_scale() else 500
            ),
        },
        rounds=1,
        iterations=1,
    )
    save_result(result)

    assert result.consistent
    for point in result.points:
        assert point.values["maintained"] > 0  # progress at every interval
