"""FIG-9 benchmark: the cost of a broken query.

Paper claims: aborting a schema-change maintenance is far more expensive
than aborting a data-update maintenance; the pessimistic strategy avoids
the abort entirely when the conflicting updates are already queued.
"""

from repro.experiments import run_fig09

from benchmarks._helpers import bench_config


def test_fig09_broken_query(benchmark, save_result):
    result = benchmark.pedantic(
        run_fig09,
        kwargs={"config": bench_config()},
        rounds=1,
        iterations=1,
    )
    save_result(result)

    assert result.consistent
    du_sc = result.points[0].values
    sc_sc = result.points[1].values
    # pessimistic ≈ no-concurrency minimum
    assert abs(du_sc["pessimistic"] - du_sc["no_concurrency"]) < (
        0.05 * du_sc["no_concurrency"]
    )
    assert abs(sc_sc["pessimistic"] - sc_sc["no_concurrency"]) < (
        0.05 * sc_sc["no_concurrency"]
    )
    # optimistic pays; the SC+SC abort dwarfs the DU+SC abort
    assert du_sc["optimistic"] > du_sc["pessimistic"]
    assert sc_sc["optimistic"] > 1.2 * sc_sc["pessimistic"]
    sc_gap = sc_sc["optimistic"] - sc_sc["pessimistic"]
    du_gap = du_sc["optimistic"] - du_sc["pessimistic"]
    assert sc_gap > 10 * du_gap
