"""Experiment harnesses reproducing the paper's evaluation (Section 6).

:data:`EXPERIMENTS` (:mod:`.table`) lists every figure and ablation
with its runner, sweep shapes and acceptance bar; the ablation runners
themselves live in :mod:`.ablations` and :mod:`.runtime_abl`.  Every
export is imported on first use, so building a testbed does not load
the figure and ablation harnesses."""

from .. import bind_on_first_use

__getattr__, __all__ = bind_on_first_use(
    globals(),
    {
        "config": ("WarehouseConfig",),
        "fig08": ("run_fig08",),
        "fig09": ("run_fig09",),
        "fig10": ("run_fig10",),
        "fig11": ("run_fig11",),
        "fig12": ("run_fig12",),
        "runner": ("ArmResult", "FigureResult", "SeriesPoint", "run_arm"),
        "table": ("EXPERIMENTS", "Experiment"),
        "testbed": (
            "ShardedTestbed",
            "Testbed",
            "build_sharded_testbed",
            "build_testbed",
            "sharded_config",
        ),
    },
)
