"""Experiment harnesses reproducing the paper's evaluation (Section 6)."""

from .ablations import (
    run_blind_merge_ablation,
    run_graph_scaling_ablation,
    run_group_maintenance_ablation,
    run_incremental_detection_ablation,
    run_parallel_ablation,
    run_recovery_ablation,
    run_self_maintenance_ablation,
    run_sharding_ablation,
    run_snapshot_cache_ablation,
)
from .config import WarehouseConfig
from .fig08 import run_figure as run_fig08
from .fig09 import run_figure as run_fig09
from .fig10 import run_figure as run_fig10
from .fig11 import run_figure as run_fig11
from .fig12 import run_figure as run_fig12
from .runner import ArmResult, FigureResult, SeriesPoint, run_arm
from .starvation import run_starvation_study
from .testbed import (
    ShardedTestbed,
    Testbed,
    build_sharded_testbed,
    build_testbed,
    sharded_config,
)
from .runtime_abl import run_runtime_ablation
from .wallclock import run_wallclock_ablation

__all__ = [
    "ArmResult",
    "FigureResult",
    "SeriesPoint",
    "ShardedTestbed",
    "Testbed",
    "WarehouseConfig",
    "build_sharded_testbed",
    "build_testbed",
    "run_arm",
    "run_blind_merge_ablation",
    "run_fig08",
    "run_fig09",
    "run_fig10",
    "run_fig11",
    "run_fig12",
    "run_graph_scaling_ablation",
    "run_group_maintenance_ablation",
    "run_incremental_detection_ablation",
    "run_parallel_ablation",
    "run_recovery_ablation",
    "run_runtime_ablation",
    "run_self_maintenance_ablation",
    "run_sharding_ablation",
    "run_snapshot_cache_ablation",
    "run_starvation_study",
    "run_wallclock_ablation",
    "sharded_config",
]
