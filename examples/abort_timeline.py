#!/usr/bin/env python3
"""Watching Dyno work: a typed trace of aborts and corrections.

Runs the testbed under the optimistic strategy with schema changes
timed to land mid-maintenance, then prints the recorded timeline —
commits, broken queries, aborts (with wasted time), corrections — and a
per-anomaly-type summary.

Run:  python examples/abort_timeline.py
"""

from repro.core.scheduler import DynoScheduler
from repro.core.strategies import OPTIMISTIC
from repro.experiments.testbed import build_testbed
from repro.sim import trace as kinds
from repro.views.consistency import check_convergence


def main() -> None:
    testbed = build_testbed(OPTIMISTIC, tuples_per_relation=500)
    engine = testbed.engine
    engine.tracer.enabled = True
    testbed.scheduler = DynoScheduler(testbed.manager, OPTIMISTIC)

    testbed.engine.schedule_workload(
        testbed.random_du_workload(30, start=0.0, interval=0.5, seed=7)
    )
    # interval near one SC maintenance time: the worst-case band
    testbed.engine.schedule_workload(
        testbed.schema_change_workload(4, start=0.0, interval=17.0, seed=11)
    )
    testbed.run()

    print("=== headline events ===")
    for kind in (kinds.BROKEN, kinds.ABORT, kinds.CORRECTION):
        for event in engine.tracer.of_kind(kind):
            print(" ", event)

    print("\n=== last 10 events of the full timeline ===")
    print(engine.tracer.timeline(limit=10))

    metrics = engine.metrics
    print("\n=== summary ===")
    print(
        f"  total cost {metrics.maintenance_cost:.1f}s, of which abort "
        f"{metrics.abort_cost:.1f}s across {metrics.aborts} aborts"
    )
    for anomaly, count in metrics.anomalies.items():
        print(f"  anomaly type {anomaly.value} ({anomaly.name}): {count}")
    print(" ", check_convergence(testbed.manager.manager_for("V")).summary())


if __name__ == "__main__":
    main()
