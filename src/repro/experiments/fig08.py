"""Figure 8 — data-update processing with and without detection.

The paper's claim: Dyno's detection machinery adds *almost unobservable*
overhead to pure data-update streams, because the schema-change flag
keeps pre-exec detection O(1) and in-exec detection never fires without
schema changes.

Reproduction: maintain N random data updates (N on the x-axis) under

* ``with_detection`` — the pessimistic Dyno scheduler (flag checks every
  iteration, ready to build graphs), and
* ``without_detection`` — the naive FIFO scheduler with no detection at
  all (safe here: no schema changes ever arrive).

Expected shape: two nearly identical, linear lines.
"""

from __future__ import annotations

from ..core.strategies import NAIVE, PESSIMISTIC
from .config import WarehouseConfig
from .runner import FigureResult, run_arm
from .testbed import du_stream

DEFAULT_DU_COUNTS = (500, 1000, 1500, 2000, 2500, 3000)
QUICK_DU_COUNTS = (100, 200, 400)


def run_fig08(
    config: WarehouseConfig = WarehouseConfig(),
    du_counts: tuple[int, ...] = DEFAULT_DU_COUNTS,
    du_interval: float = 0.2,
    workload_seed: int = 7,
) -> FigureResult:
    result = FigureResult(
        figure_id="FIG-8",
        title="DU processing cost with vs without detection (virtual s)",
        x_label="#DUs",
        series_names=["with_detection", "without_detection"],
    )
    for count in du_counts:
        values: dict[str, float] = {}
        for name, strategy in (
            ("with_detection", PESSIMISTIC),
            ("without_detection", NAIVE),
        ):
            arm = run_arm(
                config.replace(strategy=strategy),
                [
                    du_stream(
                        config, count, 0.0, du_interval, seed=workload_seed
                    )
                ],
            )
            values[name] = arm.metrics.maintenance_cost
            result.require(
                arm.consistent, f"{name} N={count}: failed convergence check"
            )
        result.add(count, **values)
    overheads = [
        point.values["with_detection"] - point.values["without_detection"]
        for point in result.points
    ]
    result.notes.append(
        f"max detection overhead: {max(overheads):.4f} virtual s"
    )
    return result
