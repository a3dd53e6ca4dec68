"""Figure 12 — effect of the number of data updates on abort cost.

Workload (Section 6.4.2): five schema changes (one drop-attribute
followed by four rename-relations) at a fixed 25-second interval, with a
varying number of data updates.

Expected shape: the abort cost stays roughly flat as data updates grow —
aborts are caused by schema changes, not data volume — while the total
maintenance cost grows linearly with the number of data updates.
"""

from __future__ import annotations

from .config import WarehouseConfig
from .runner import FigureResult, abort_cost_sweep
from .testbed import du_stream, sc_stream

DEFAULT_DU_COUNTS = (200, 300, 400, 500, 600)
QUICK_DU_COUNTS = (200, 400)
SC_COUNT = 5
SC_INTERVAL = 25.0


def run_fig12(
    config: WarehouseConfig = WarehouseConfig(),
    du_counts: tuple[int, ...] = DEFAULT_DU_COUNTS,
    sc_count: int = SC_COUNT,
    sc_interval: float = SC_INTERVAL,
    du_interval: float = 0.5,
    workload_seed: int = 7,
) -> FigureResult:
    return abort_cost_sweep(
        "FIG-12",
        "Maintenance + abort cost vs #data updates (virtual s)",
        "#DUs",
        config,
        du_counts,
        lambda du_count: [
            du_stream(config, du_count, 0.0, du_interval, seed=workload_seed),
            sc_stream(sc_count, 0.0, sc_interval, seed=workload_seed + 4),
        ],
    )
