"""The experiment table: every figure and ablation, stated once.

One :class:`Experiment` row per command-line id — its runner, the sweep
it runs at the ``quick`` and at the ``full`` (paper) scale, the
timebase of its numbers and its acceptance bar.  ``python -m
repro.experiments``, ``benchmarks/bench_ablations.py``, the regression
guard's baselines and CI all read :data:`EXPERIMENTS`; none restates a
shape or a bar.  A value no scale varies is the runner's own default.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from inspect import signature
from typing import Callable, Mapping

from . import ablations, fig08, fig09, fig10, fig11, fig12
from .config import WarehouseConfig
from .runner import FigureResult
from .runtime_abl import run_runtime_ablation
from .testbed import sharded_config


#: every flag reaches a figure's world, at the row's scale, so each
#: chart can be produced under every mechanism — except the shard
#: knobs: a figure testbed is one in-process world
FIGURE_KNOBS = tuple(
    field.name
    for field in fields(WarehouseConfig)
    if field.name not in ("tuples_per_relation", "shards", "shard_processes")
)
#: ... which is the one flag to reach the two sharded ablations: ABL-11
#: executes its swept arms in N worker processes, ABL-13 narrows its
#: process-count sweep to inline vs N
PROCESS_KNOBS = ("shard_processes",)


@dataclass(frozen=True)
class Experiment:
    """One figure or ablation of the reproduction."""

    #: the command line's name for it
    id: str
    run: Callable[..., FigureResult]
    #: ``run``'s keyword arguments at the default scale (the bare
    #: command line, ``pytest benchmarks/``, CI, the committed baselines)
    quick: Mapping[str, object]
    #: ... and at paper scale (``--full``, ``DYNO_BENCH_FULL=1``)
    full: Mapping[str, object]
    #: ``"virtual"`` (cost-model seconds, deterministic) or ``"wall"``
    timebase: str
    #: the claimed shape, asserted on a result
    bar: Callable[[FigureResult], None] = lambda result: None
    #: the fields of the command line's config that reach the row's
    #: ``config``; by default none — an ablation builds its own arms
    #: (ABL-7 runs cache on *and* off)
    knobs: tuple[str, ...] = ()

    def __call__(
        self,
        full: bool = False,
        cli: WarehouseConfig | None = None,
        workload_seed: int | None = None,
        **overrides,
    ) -> FigureResult:
        """Run the row at one scale.  ``cli`` is the command line's
        config; ``workload_seed`` overrides the update-stream seed of a
        runner that draws a randomized stream; ``overrides`` replace
        single keyword arguments."""
        shape = dict(self.full if full else self.quick)
        if cli is not None and self.knobs:
            shape["config"] = shape["config"].replace(
                **{name: getattr(cli, name) for name in self.knobs}
            )
        if (
            workload_seed is not None
            and "workload_seed" in signature(self.run).parameters
        ):
            shape["workload_seed"] = workload_seed
        result = self.run(**{**shape, **overrides})
        result.timebase = self.timebase
        return result

    def check(self, result: FigureResult) -> None:
        """The acceptance bar: every identity and convergence check of
        the run held, and the numbers have the claimed shape."""
        assert result.consistent, "\n".join(result.notes)
        self.bar(result)


def _scale(tuples: int) -> WarehouseConfig:
    return WarehouseConfig(tuples_per_relation=tuples)


def _sharded(tuples: int, **knobs) -> WarehouseConfig:
    return sharded_config(tuples_per_relation=tuples, **knobs)


def _figure(
    id: str, run: Callable[..., FigureResult], **quick
) -> Experiment:
    """FIG-8..12: 500 tuples and the figure's quick sweep, or the
    paper's 2 000 tuples and the runner's own (paper) defaults.  Their
    shape bars live in ``benchmarks/bench_fig*.py``."""
    return Experiment(
        id,
        run,
        quick={"config": _scale(500), **quick},
        full={"config": _scale(2000)},
        timebase="virtual",
        knobs=FIGURE_KNOBS,
    )


#: the DU-heavy sweep ABL-7, ABL-8 and ABL-10 share
_DU_HEAVY_QUICK = {"config": _scale(200), "du_counts": (60, 120, 240)}
_DU_HEAVY_FULL = {"config": _scale(400), "du_counts": (120, 240, 480)}

EXPERIMENTS = (
    _figure("fig08", fig08.run_fig08, du_counts=fig08.QUICK_DU_COUNTS),
    _figure("fig09", fig09.run_fig09),
    _figure(
        "fig10", fig10.run_fig10, intervals=fig10.QUICK_INTERVALS,
        du_count=60,
    ),
    _figure(
        "fig11", fig11.run_fig11, sc_counts=fig11.QUICK_SC_COUNTS,
        du_count=60,
    ),
    _figure("fig12", fig12.run_fig12, du_counts=fig12.QUICK_DU_COUNTS),
    Experiment(
        "abl-blind-merge",
        ablations.run_blind_merge_ablation,
        quick={"config": _scale(500), "du_count": 60},
        full={"config": _scale(2000), "du_count": 200},
        timebase="virtual",
        bar=ablations.check_blind_merge,
    ),
    Experiment(
        "abl-starvation",
        ablations.run_starvation_study,
        quick={"config": _scale(500)},
        full={"config": _scale(1000)},
        timebase="virtual",
        bar=ablations.check_starvation,
    ),
    Experiment(
        "abl-parallel",
        ablations.run_parallel_ablation,
        quick={"config": _scale(200), "du_count": 40},
        full={"config": _scale(400), "du_count": 80},
        timebase="virtual",
        bar=ablations.check_parallel,
    ),
    Experiment(
        "abl-snapshot-cache",
        ablations.run_snapshot_cache_ablation,
        quick=_DU_HEAVY_QUICK,
        full=_DU_HEAVY_FULL,
        timebase="virtual",
        bar=ablations.check_snapshot_cache,
    ),
    Experiment(
        "abl-self-maintenance",
        ablations.run_self_maintenance_ablation,
        quick=_DU_HEAVY_QUICK,
        full=_DU_HEAVY_FULL,
        timebase="virtual",
        bar=ablations.check_self_maintenance,
    ),
    Experiment(
        "abl-recovery",
        ablations.run_recovery_ablation,
        quick={"config": _scale(300), "du_count": 48},
        full={"config": _scale(600), "du_count": 96},
        timebase="virtual",
        bar=ablations.check_recovery,
    ),
    Experiment(
        "abl-group-maintenance",
        ablations.run_group_maintenance_ablation,
        quick=_DU_HEAVY_QUICK,
        full=_DU_HEAVY_FULL,
        timebase="virtual",
        bar=ablations.check_group_maintenance,
    ),
    Experiment(
        "abl-sharding",
        ablations.run_sharding_ablation,
        quick={"config": _sharded(120), "du_count": 96},
        full={"config": _sharded(160), "du_count": 160},
        timebase="virtual",
        bar=ablations.check_sharding,
        knobs=PROCESS_KNOBS,
    ),
    # Its hardware-gated speedup bar lives in benchmarks/bench_runtime.py.
    Experiment(
        "abl-runtime",
        run_runtime_ablation,
        quick={
            "config": _sharded(120, shards=4),
            "du_count": 48,
            "repeats": 2,
        },
        full={
            "config": _sharded(240, shards=4),
            "du_count": 160,
            "repeats": 3,
        },
        timebase="wall",
        knobs=PROCESS_KNOBS,
    ),
)

BY_ID = {row.id: row for row in EXPERIMENTS}
