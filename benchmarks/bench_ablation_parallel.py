"""ABL-6 benchmark: parallel executor makespan vs worker count.

Theorem 2 says any topological order of the dependency graph is a legal
maintenance order; the parallel executor exploits it by running the
ready antichain on N workers.  This bench sweeps workers 1..8 on a
DU-heavy multi-source stream with a PR 1 fault plan injected, under
both conflict strategies, and asserts the PR's acceptance bar: four
workers buy at least a 2x makespan reduction over the 1-worker arm
while every arm's final extent and committed-update set stay identical
to the serial scheduler.
"""

from repro.experiments import WarehouseConfig, run_parallel_ablation

from benchmarks._helpers import full_scale


def test_ablation_parallel_makespan(benchmark, save_result):
    du_count, tuples = (80, 400) if full_scale() else (40, 200)
    kwargs = {
        "du_count": du_count,
        "config": WarehouseConfig(tuples_per_relation=tuples),
    }
    result = benchmark.pedantic(
        run_parallel_ablation,
        kwargs=kwargs,
        rounds=1,
        iterations=1,
    )
    save_result(result)
    # Extent + processed-set identity is verified inside the run.
    assert result.consistent
    by_workers = {point.x: point.values for point in result.points}
    assert by_workers[1]["pess_speedup"] == 1.0
    for label in ("pess", "opt"):
        assert by_workers[4][f"{label}_speedup"] >= 2.0
        # More workers never hurt the makespan.
        assert (
            by_workers[8][f"{label}_makespan"]
            <= by_workers[4][f"{label}_makespan"] * 1.05
        )
    # Channel contention actually coalesced probe queries at 4 workers.
    assert by_workers[4]["batched_queries"] > 0
