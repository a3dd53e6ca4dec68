"""ABL-1..11 benchmarks: every virtual-clock and detection ablation.

One parametrised test runs each ablation row of the experiment table
(``repro.experiments.table``) at the table's ``quick`` scale — or its
``full`` one under ``DYNO_BENCH_FULL=1`` — saves the series under
``benchmarks/results/`` and asserts the row's acceptance bar.  The
sweep shapes and the bars are the table's; nothing is restated here.
ABL-12 and ABL-13 have their own wall-clock lanes
(``bench_wallclock.py``, ``bench_runtime.py``).

ABL-4 (deferred vs eager data-update maintenance, beyond the paper:
related work [5]) is declared here rather than in the package: the
scheduler's ``defer_du_interval`` is not a ``WarehouseConfig`` field,
so its arms are built by hand.
"""

import pytest

from repro.core.scheduler import DynoScheduler
from repro.experiments import (
    EXPERIMENTS,
    Experiment,
    FigureResult,
    WarehouseConfig,
    testbed as harness,
)

from benchmarks._helpers import full_scale


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
    for row in (*EXPERIMENTS, ABL_4)
    if row.id.startswith("abl-") and row.id != "abl-runtime"
]


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.id)
def test_ablation(row, benchmark, save_result):
    result = benchmark.pedantic(
        row, args=(full_scale(),), rounds=1, iterations=1
    )
    save_result(result)
    row.check(result)
