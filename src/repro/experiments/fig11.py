"""Figure 11 — effect of the number of schema changes on abort cost.

Workload (Section 6.4.1): 200 data updates plus a varying number of
schema changes (one drop-attribute followed by rename-relations) spaced
25 virtual seconds apart — just inside one schema-change maintenance
time, so each new change can break the ongoing maintenance.

Expected shape: the abort cost (and with it the total) grows with the
number of schema changes for both strategies, since more changes mean
more conflicts between them.
"""

from __future__ import annotations

from .config import WarehouseConfig
from .runner import FigureResult, abort_cost_sweep
from .testbed import du_stream, sc_stream

DEFAULT_SC_COUNTS = (5, 10, 15, 20, 25)
QUICK_SC_COUNTS = (5, 15)
SC_INTERVAL = 25.0


def run_fig11(
    config: WarehouseConfig = WarehouseConfig(),
    sc_counts: tuple[int, ...] = DEFAULT_SC_COUNTS,
    du_count: int = 200,
    sc_interval: float = SC_INTERVAL,
    du_interval: float = 0.5,
    workload_seed: int = 7,
) -> FigureResult:
    return abort_cost_sweep(
        "FIG-11",
        "Maintenance + abort cost vs #schema changes (virtual s)",
        "#SCs",
        config,
        sc_counts,
        lambda sc_count: [
            du_stream(config, du_count, 0.0, du_interval, seed=workload_seed),
            sc_stream(sc_count, 0.0, sc_interval, seed=workload_seed + 4),
        ],
    )
