"""ABL-1..11 benchmarks: every virtual-clock and detection ablation.

One parametrised test runs each ablation row of the experiment table
(``repro.experiments.table``) at the table's ``quick`` scale — or its
``full`` one under ``DYNO_BENCH_FULL=1`` — saves the series under
``benchmarks/results/`` and asserts the row's acceptance bar.  The
sweep shapes and the bars are the table's; nothing is restated here.
ABL-12 and ABL-13 have their own wall-clock lanes
(``bench_wallclock.py``, ``bench_runtime.py``).

Three rows are declared here rather than in the package:

* ABL-2 and ABL-5 time the from-scratch §4.1 builder, which lives in
  ``tests/detection_oracle.py`` (the scheduler runs only the live
  substrate);
* ABL-4 (deferred vs eager data-update maintenance, beyond the paper:
  related work [5]): the scheduler's ``defer_du_interval`` is not a
  ``WarehouseConfig`` field, so its arms are built by hand.
"""

import gc
import time

import pytest

from repro.core.incremental import IncrementalDependencyGraph
from repro.core.scheduler import DynoScheduler
from repro.experiments import (
    EXPERIMENTS,
    Experiment,
    FigureResult,
    WarehouseConfig,
    testbed as harness,
)
from repro.experiments.runner import ratio
from repro.sources.messages import UpdateMessage
from repro.views.umq import UpdateMessageQueue

from benchmarks._helpers import full_scale
from tests.detection_oracle import (
    detect,
    dropped,
    edge_set,
    find_dependencies,
    synthetic_queue,
)


def run_graph_scaling_ablation(
    sizes: tuple[tuple[int, int], ...],
) -> FigureResult:
    """Wall-clock scaling of dependency-graph construction (O(mn))."""
    view_query = harness.full_join_query()
    result = FigureResult(
        figure_id="ABL-2",
        title="Dependency graph construction scaling (wall-clock ms)",
        x_label="n_updates",
    )
    for n_updates, n_schema_changes in sizes:
        messages = synthetic_queue(n_updates, n_schema_changes)
        # Time the build alone: a full collection of garbage left by
        # earlier code would otherwise land in whichever build it hits.
        gc.collect()
        started = time.perf_counter()
        dependencies = find_dependencies(messages, view_query)
        elapsed_ms = (time.perf_counter() - started) * 1000
        result.add(
            n_updates,
            m_schema_changes=float(n_schema_changes),
            edges=float(len(dependencies)),
            build_ms=elapsed_ms,
        )
    return result


def check_graph_scaling(result: FigureResult) -> None:
    """O(mn): 2x n and 2x m -> ~4x edges between consecutive points."""
    edges = result.series("edges")
    for previous, current in zip(edges, edges[1:]):
        assert 2.0 < current / previous < 8.0


def run_incremental_detection_ablation(
    sizes: tuple[int, ...],
    rounds: int = 40,
    sc_fraction: float = 0.05,
    workload_seed: int = 9,
) -> FigureResult:
    """ABL-5: per-round detection time, from-scratch rebuild vs the
    incremental substrate.  A *round* is one scheduler step at steady
    queue length ``n``: one arrival, a detection pass, one head
    removal, another detection pass.  Each pass is what the scheduler
    would run: the oracle's ``detect`` (edges and legal order) from
    scratch, against the substrate's ``detection()`` that
    ``detect_and_correct`` calls.  Both arms consume the identical
    stream; final edge sets and corrected orders must be identical."""
    view_query = harness.full_join_query()
    result = FigureResult(
        figure_id="ABL-5",
        title="Incremental vs from-scratch detection (per-round ms)",
        x_label="n_updates",
    )
    for n_updates in sizes:
        n_schema_changes = max(1, int(n_updates * sc_fraction))
        prefill = synthetic_queue(
            n_updates, n_schema_changes, workload_seed, dropped
        )
        arrivals = synthetic_queue(
            rounds,
            max(1, int(rounds * sc_fraction)),
            workload_seed + 1,
            dropped,
            first_seqno=n_updates + 1,
        )

        # -- from-scratch arm ------------------------------------------
        queue: list[UpdateMessage] = list(prefill)
        started = time.perf_counter()
        for message in arrivals:
            queue.append(message)
            detect(queue, view_query)
            del queue[0]
            detect(queue, view_query)
        full_ms = (time.perf_counter() - started) * 1000 / (2 * rounds)

        # -- incremental arm -------------------------------------------
        umq = UpdateMessageQueue()
        incremental = IncrementalDependencyGraph(
            umq, lambda query=view_query: (query,)
        )
        for message in prefill:
            umq.receive(message)
        started = time.perf_counter()
        for message in arrivals:
            umq.receive(message)
            incremental.detection()
            umq.remove_head()
            incremental.detection()
        incremental_ms = (
            (time.perf_counter() - started) * 1000 / (2 * rounds)
        )

        # Both arms saw the same stream: outputs must be bit-identical.
        rebuilt = detect(umq.messages(), view_query)
        result.require(
            edge_set(rebuilt.graph.dependencies)
            == edge_set(incremental.dependencies())
            and rebuilt.groups == incremental.detection().groups,
            f"n={n_updates}: incremental output diverged from oracle",
        )

        result.add(
            n_updates,
            full_ms=full_ms,
            incremental_ms=incremental_ms,
            speedup=ratio(full_ms, incremental_ms),
        )
    result.notes.append(
        "corrected orders verified identical between both arms"
    )
    return result


def check_incremental_detection(result: FigureResult) -> None:
    """The substrate's contract: from queue length 200 on, per-round
    detection is at least 2x cheaper than a from-scratch build."""
    for point in result.points:
        if point.x >= 200:
            assert point.values["speedup"] >= 2.0


ABL_2 = Experiment(
    "abl-graph-scaling",
    run_graph_scaling_ablation,
    quick={"sizes": ((100, 5), (200, 10), (400, 20), (800, 40))},
    full={"sizes": ((100, 5), (200, 10), (400, 20), (800, 40), (1600, 80))},
    timebase="wall",
    bar=check_graph_scaling,
)

ABL_5 = Experiment(
    "abl-incremental-detection",
    run_incremental_detection_ablation,
    quick={"sizes": (50, 100, 200, 400)},
    full={"sizes": (50, 100, 200, 400, 800)},
    timebase="wall",
    bar=check_incremental_detection,
)


def run_deferred_ablation(
    config: WarehouseConfig,
    du_count: int,
    intervals=(None, 5.0, 20.0, 60.0),
) -> FigureResult:
    """Sweeps the deferral interval of pure-DU stretches and reports
    total cost and refresh count — the staleness/cost trade-off."""
    result = FigureResult(
        figure_id="ABL-4",
        title="Deferred vs eager DU maintenance",
        x_label="defer_interval",
    )
    for interval in intervals:
        testbed = harness.Testbed.build(config)
        testbed.scheduler.detach()
        testbed.scheduler = DynoScheduler(
            testbed.manager, config.strategy, defer_du_interval=interval
        )
        testbed.engine.schedule_workload(
            testbed.random_du_workload(
                du_count, 0.0, 0.3, seed=config.seed + 1
            )
        )
        testbed.run()
        result.require(
            testbed.check_consistency(),
            f"defer={interval}: failed convergence check",
        )
        metrics = testbed.metrics
        result.add(
            "eager" if interval is None else interval,
            total_cost=metrics.maintenance_cost,
            view_refreshes=float(metrics.view_refreshes),
            queries=float(
                round(metrics.busy_time["maintenance_query"], 2)
            ),
        )
    return result


def check_deferred(result: FigureResult) -> None:
    """Eager refreshes the most; longer deferral, monotonically fewer."""
    refreshes = result.series("view_refreshes")
    assert refreshes[0] == max(refreshes)
    assert all(b <= a for a, b in zip(refreshes[1:], refreshes[2:]))


ABL_4 = Experiment(
    "abl-deferred",
    run_deferred_ablation,
    quick={
        "config": WarehouseConfig(tuples_per_relation=1000, seed=7),
        "du_count": 150,
    },
    full={
        "config": WarehouseConfig(tuples_per_relation=2000, seed=7),
        "du_count": 300,
    },
    timebase="virtual",
    bar=check_deferred,
)

ROWS = [
    row
    for row in (*EXPERIMENTS, ABL_2, ABL_4, ABL_5)
    if row.id.startswith("abl-") and row.id != "abl-runtime"
]


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.id)
def test_ablation(row, benchmark, save_result):
    result = benchmark.pedantic(
        row, args=(full_scale(),), rounds=1, iterations=1
    )
    save_result(result)
    row.check(result)
