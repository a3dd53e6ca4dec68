#!/usr/bin/env python3
"""Data-Grid monitor: the paper's full testbed under a mixed storm.

Six relations over three autonomous source servers, a 24-attribute
one-to-one join view, 150 data updates and 8 schema changes arriving
concurrently.  The script races all four strategies over the identical
workload and prints a comparison table — the Section 6.4 experiment in
miniature.

Run:  python examples/data_grid_monitor.py
"""

from repro.core.strategies import BLIND_MERGE, NAIVE, OPTIMISTIC, PESSIMISTIC
from repro.experiments.testbed import build_testbed
from repro.views.consistency import check_convergence

TUPLES = 1000
DU_COUNT = 150
SC_COUNT = 8
SC_INTERVAL = 17.0  # near one SC maintenance time: the worst case


def run_strategy(strategy):
    testbed = build_testbed(strategy, tuples_per_relation=TUPLES, seed=3)
    testbed.engine.schedule_workload(
        testbed.random_du_workload(DU_COUNT, start=0.0, interval=0.5, seed=7)
    )
    testbed.engine.schedule_workload(
        testbed.schema_change_workload(
            SC_COUNT, start=0.0, interval=SC_INTERVAL, seed=11
        )
    )
    testbed.run()
    report = check_convergence(testbed.manager.manager_for("V"))
    metrics = testbed.metrics
    return {
        "strategy": strategy.name,
        "total_cost": metrics.maintenance_cost,
        "abort_cost": metrics.abort_cost,
        "aborts": metrics.aborts,
        "broken": metrics.broken_queries,
        "merges": metrics.cycle_merges,
        "refreshes": metrics.view_refreshes,
        "skipped": testbed.scheduler.stats.skipped_updates,
        "consistent": "yes" if report.consistent else "NO",
    }


def main() -> None:
    print(
        f"testbed: 6 relations x {TUPLES} tuples over 3 sources; "
        f"{DU_COUNT} DUs + {SC_COUNT} SCs at {SC_INTERVAL}s intervals\n"
    )
    header = (
        f"{'strategy':<14} {'total(s)':>9} {'abort(s)':>9} {'aborts':>7} "
        f"{'broken':>7} {'merges':>7} {'refreshes':>10} {'skipped':>8} "
        f"{'consistent':>11}"
    )
    print(header)
    print("-" * len(header))
    for strategy in (PESSIMISTIC, OPTIMISTIC, BLIND_MERGE, NAIVE):
        row = run_strategy(strategy)
        print(
            f"{row['strategy']:<14} {row['total_cost']:>9.1f} "
            f"{row['abort_cost']:>9.1f} {row['aborts']:>7} "
            f"{row['broken']:>7} {row['merges']:>7} "
            f"{row['refreshes']:>10} {row['skipped']:>8} "
            f"{row['consistent']:>11}"
        )
    print(
        "\nreading the table: both Dyno strategies converge while "
        "refreshing the view\nat the finest granularity (most "
        "intermediate states); blind merge converges\nbut collapses "
        "many updates into few big refreshes; the naive baseline "
        "skips\nevery broken update and leaves the view permanently "
        "inconsistent."
    )


if __name__ == "__main__":
    main()
