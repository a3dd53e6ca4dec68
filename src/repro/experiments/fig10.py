"""Figure 10 — effect of the schema-change time interval on abort cost.

Workload (Section 6.4.1): 200 data updates plus ten schema changes (one
drop-attribute followed by nine rename-relations, randomly placed over
the six relations), varying the interval between consecutive schema
changes.

Expected shape:

* interval 0 (all SCs flood in before maintenance starts) is cheapest —
  one correction round fixes everything, no broken queries;
* cost peaks when the interval approximates one schema-change
  maintenance time (each new SC lands near the end of the ongoing
  maintenance, wasting almost a whole run);
* beyond the maintenance time the SCs stop interfering and the cost
  settles at pure maintenance.
"""

from __future__ import annotations

from .config import WarehouseConfig
from .runner import FigureResult, abort_cost_sweep
from .testbed import du_stream, sc_stream

DEFAULT_INTERVALS = (0.0, 3.0, 9.0, 17.0, 23.0, 29.0, 41.0)
QUICK_INTERVALS = (0.0, 17.0, 41.0)


def run_fig10(
    config: WarehouseConfig = WarehouseConfig(),
    intervals: tuple[float, ...] = DEFAULT_INTERVALS,
    du_count: int = 200,
    sc_count: int = 10,
    du_interval: float = 0.5,
    workload_seed: int = 7,
) -> FigureResult:
    return abort_cost_sweep(
        "FIG-10",
        "Maintenance + abort cost vs SC time interval (virtual s)",
        "interval_s",
        config,
        intervals,
        lambda interval: [
            du_stream(config, du_count, 0.0, du_interval, seed=workload_seed),
            sc_stream(sc_count, 0.0, interval, seed=workload_seed + 4),
        ],
    )
