"""Termination / starvation study (Section 4.4).

Dyno could in principle loop forever if a continuous stream of schema
changes kept breaking the ongoing maintenance.  The paper argues the
window is narrow: aborts only pile up when schema changes arrive at
intervals close to one maintenance time.

Reproduction: fire an adversarial stream of view-conflicting renames at
a fixed interval and measure (a) whether the view still converges once
the stream stops, and (b) how many updates were maintained *during* the
stream — the progress metric.
"""

from __future__ import annotations

from .config import WarehouseConfig
from .runner import FigureResult, run_arm
from .testbed import du_stream, sc_stream


def run_starvation_study(
    config: WarehouseConfig = WarehouseConfig(tuples_per_relation=1000),
    intervals: tuple[float, ...] = (1.0, 5.0, 15.0, 23.0, 40.0),
    stream_length: int = 12,
    du_count: int = 60,
    workload_seed: int = 13,
) -> FigureResult:
    result = FigureResult(
        figure_id="ABL-3",
        title="Progress under an adversarial schema-change stream",
        x_label="sc_interval_s",
        series_names=[
            "total_cost",
            "aborts",
            "forced_merges",
            "maintained",
        ],
    )
    for interval in intervals:
        arm = run_arm(
            config,
            [
                du_stream(config, du_count, 0.0, 0.5, seed=workload_seed),
                sc_stream(
                    stream_length,
                    0.0,
                    interval,
                    seed=workload_seed + 1,
                    drop_first=False,
                ),
            ],
        )
        result.require(
            arm.consistent, f"interval={interval}: failed convergence check"
        )
        result.add(
            interval,
            total_cost=arm.metrics.maintenance_cost,
            aborts=float(arm.metrics.aborts),
            forced_merges=float(arm.testbed.scheduler.stats.forced_merges),
            maintained=float(arm.metrics.maintained_updates),
        )
    result.notes.append(
        "every run quiesced and converged: the infinite-wait scenario of "
        "Section 4.4 did not materialize at any interval"
    )
    return result
