"""Experiment harnesses reproducing the paper's evaluation (Section 6).

:data:`EXPERIMENTS` (:mod:`.table`) lists every figure and ablation
with its runner, sweep shapes and acceptance bar; the ablation runners
themselves live in :mod:`.ablations` and :mod:`.runtime_abl`."""

from .config import WarehouseConfig
from .fig08 import run_figure as run_fig08
from .fig09 import run_figure as run_fig09
from .fig10 import run_figure as run_fig10
from .fig11 import run_figure as run_fig11
from .fig12 import run_figure as run_fig12
from .runner import ArmResult, FigureResult, SeriesPoint, run_arm
from .table import EXPERIMENTS, Experiment
from .testbed import (
    ShardedTestbed,
    Testbed,
    build_sharded_testbed,
    build_testbed,
    sharded_config,
)

__all__ = [
    "ArmResult",
    "EXPERIMENTS",
    "Experiment",
    "FigureResult",
    "SeriesPoint",
    "ShardedTestbed",
    "Testbed",
    "WarehouseConfig",
    "build_sharded_testbed",
    "build_testbed",
    "run_arm",
    "run_fig08",
    "run_fig09",
    "run_fig10",
    "run_fig11",
    "run_fig12",
    "sharded_config",
]
