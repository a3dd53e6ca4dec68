"""Command-line runner for the figure reproductions.

Usage::

    python -m repro.experiments fig08 [--full]
    python -m repro.experiments fig09 fig10
    python -m repro.experiments all --full

Each figure prints the same series the paper charts; ``--full`` runs the
paper-scale sweeps (minutes), the default is a reduced configuration.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, fields
from typing import Callable

from ..maintenance.grouping import BatchPolicy
from ..recovery import CrashPlan
from . import (
    run_blind_merge_ablation,
    run_fig08,
    run_fig09,
    run_fig10,
    run_fig11,
    run_fig12,
    run_graph_scaling_ablation,
    run_group_maintenance_ablation,
    run_incremental_detection_ablation,
    run_parallel_ablation,
    run_recovery_ablation,
    run_runtime_ablation,
    run_self_maintenance_ablation,
    run_sharding_ablation,
    run_snapshot_cache_ablation,
    run_starvation_study,
)
from .ablations import TWO_VIEW_SPANS
from .config import WarehouseConfig
from .fig08 import QUICK_DU_COUNTS as FIG8_QUICK
from .fig10 import QUICK_INTERVALS as FIG10_QUICK
from .fig11 import QUICK_SC_COUNTS as FIG11_QUICK
from .fig12 import QUICK_DU_COUNTS as FIG12_QUICK
from .testbed import sharded_config

_QUICK_TUPLES = 500
_FULL_TUPLES = 2000


@dataclass(frozen=True)
class Flag:
    """One command-line flag setting one :class:`WarehouseConfig` field.

    ``type=None`` is an on/off flag — ``--name`` alone, or a mutually
    exclusive ``--name`` / ``--no-name`` pair when ``negatable``;
    otherwise the flag takes one value of that type.  The parsed value
    passes through ``convert`` on its way into the field.  Defaults are
    the dataclass's own."""

    name: str
    field: str
    help: str
    type: type | None = None
    metavar: str | None = None
    negatable: bool = False
    convert: Callable = lambda value: value


#: every config field reachable from the command line; the others
#: (strategy, scale, seeds, backend, ...) are set by the runners
FLAGS = (
    Flag(
        "cache",
        "snapshot_cache",
        "run every figure with the snapshot cache enabled",
        negatable=True,
    ),
    Flag(
        "self-maintenance",
        "self_maintenance",
        "run every figure with the auxiliary self-maintenance store "
        "enabled (covered probes answered with zero round trips)",
        negatable=True,
    ),
    Flag(
        "batch",
        "batch_policy",
        "run every figure with adaptive group maintenance enabled",
        negatable=True,
        convert=lambda on: BatchPolicy() if on else None,
    ),
    Flag(
        "journal",
        "journal",
        "arm the write-ahead maintenance journal + checkpoints on "
        "every fig08..fig12 testbed (measures recovery overhead)",
    ),
    Flag(
        "checkpoint-every",
        "checkpoint_every",
        "checkpoint every N installed units when the journal is armed",
        type=int,
        metavar="N",
    ),
    Flag(
        "crash-seed",
        "crash_plan",
        "draw a seeded CrashPlan and kill + recover the warehouse "
        "mid-run in every fig08..fig12 testbed (implies --journal); "
        "every run must still converge to the uncrashed view state, "
        "with the redone work showing up in the cost series",
        type=int,
        metavar="SEED",
        convert=lambda seed: None if seed is None else CrashPlan.random(seed),
    ),
    Flag(
        "shards",
        "shards",
        "run every fig08..fig12 testbed through the sharded "
        "warehouse coordinator with N requested scheduler shards "
        "(single-view figures collapse to one effective shard; the "
        "baselines are unchanged at the default of 1 — the multi-view "
        "shard sweep is the abl-sharding runner)",
        type=int,
        metavar="N",
    ),
    Flag(
        "shard-processes",
        "shard_processes",
        "execute sharded-warehouse arms across N OS worker "
        "processes (the multi-core runtime, repro.core.runtime) "
        "instead of in this one; results are bit-identical "
        "— only wall-clock time moves.  Applies to abl-sharding's "
        "swept arms and narrows abl-runtime's sweep to (0, N); the "
        "default 0 keeps everything inline",
        type=int,
        metavar="N",
    ),
)


def _add_flags(parser: argparse.ArgumentParser) -> None:
    defaults = {field.name: field.default for field in fields(WarehouseConfig)}
    for flag in FLAGS:
        default = defaults[flag.field]
        if flag.type is not None:
            parser.add_argument(
                f"--{flag.name}",
                dest=flag.field,
                type=flag.type,
                default=default,
                metavar=flag.metavar,
                help=f"{flag.help} (default {default})",
            )
            continue
        group = (
            parser.add_mutually_exclusive_group() if flag.negatable else parser
        )
        group.add_argument(
            f"--{flag.name}",
            dest=flag.field,
            action="store_true",
            help=flag.help,
        )
        if flag.negatable:
            # Shares the dest, so both halves must default to off.
            group.add_argument(
                f"--no-{flag.name}",
                dest=flag.field,
                action="store_false",
                default=False,
                help="the default",
            )


def _config_from(arguments: argparse.Namespace) -> WarehouseConfig:
    """The flags' config; raises ``ValueError`` on a rejected value."""
    return WarehouseConfig(
        **{
            flag.field: flag.convert(getattr(arguments, flag.field))
            for flag in FLAGS
        }
    )


def _runners(
    full: bool,
    config: WarehouseConfig = WarehouseConfig(),
    workload_seed: int | None = None,
) -> dict:
    """Figure id -> zero-argument runner.

    ``config`` (the command line's knobs) reaches every fig08..fig12
    testbed, so each chart can be produced under every mechanism — the
    numbers are unchanged wherever the mechanism is value-transparent
    (journal, shards), and the cost series additionally charge, e.g.,
    the maintenance work redone after a crash.  The ablations build
    their own arms (ABL-7 runs cache on *and* off) and take only their
    scale from here.  ``shard_processes`` reaches only the two sharded
    ablations: a figure testbed is one in-process world, so the figures
    run inline whatever the flag says.  ``workload_seed`` overrides the
    update-stream seed of every runner that draws a randomized stream
    (fig09's is fixed)."""
    figure = config.replace(
        tuples_per_relation=_FULL_TUPLES if full else _QUICK_TUPLES,
        shard_processes=0,
    )
    seeded = {} if workload_seed is None else {"workload_seed": workload_seed}
    processes = config.shard_processes

    def at(quick: dict, paper: dict) -> dict:
        """This scale's sweep shape, plus the ``--seed`` override."""
        return {**(paper if full else quick), **seeded}

    def scale(tuples: int) -> WarehouseConfig:
        return WarehouseConfig(tuples_per_relation=tuples)

    hot_key_sweep = {"config": scale(400), "du_counts": (120, 240, 480)}
    return {
        "fig08": lambda: run_fig08(
            figure, **at({"du_counts": FIG8_QUICK}, {})
        ),
        "fig09": lambda: run_fig09(figure),
        "fig10": lambda: run_fig10(
            figure, **at({"intervals": FIG10_QUICK, "du_count": 60}, {})
        ),
        "fig11": lambda: run_fig11(
            figure, **at({"sc_counts": FIG11_QUICK, "du_count": 60}, {})
        ),
        "fig12": lambda: run_fig12(
            figure, **at({"du_counts": FIG12_QUICK}, {})
        ),
        "abl-blind-merge": lambda: run_blind_merge_ablation(
            scale(figure.tuples_per_relation), **at({"du_count": 60}, {})
        ),
        "abl-graph-scaling": lambda: run_graph_scaling_ablation(),
        "abl-incremental-detection": lambda: (
            run_incremental_detection_ablation(
                **at({"sizes": (50, 100, 200)}, {})
            )
        ),
        "abl-starvation": lambda: run_starvation_study(
            scale(min(figure.tuples_per_relation, 1000)), **seeded
        ),
        "abl-parallel": lambda: run_parallel_ablation(
            **at({}, {"config": scale(400), "du_count": 80})
        ),
        "abl-snapshot-cache": lambda: run_snapshot_cache_ablation(
            **at({}, hot_key_sweep)
        ),
        "abl-self-maintenance": lambda: run_self_maintenance_ablation(
            **at({}, hot_key_sweep)
        ),
        "abl-recovery": lambda: run_recovery_ablation(
            **at({}, {"config": scale(600), "du_count": 96})
        ),
        "abl-group-maintenance": lambda: run_group_maintenance_ablation(
            **at(
                {},
                {
                    **hot_key_sweep,
                    "config": scale(400).replace(spans=TWO_VIEW_SPANS),
                },
            )
        ),
        "abl-sharding": lambda: run_sharding_ablation(
            sharded_config(
                tuples_per_relation=160 if full else 120,
                shard_processes=processes,
            ),
            **at({"du_count": 96, "reads": 200_000}, {}),
        ),
        "abl-runtime": lambda: run_runtime_ablation(
            sharded_config(
                tuples_per_relation=240 if full else 120, shards=4
            ),
            **at({}, {"du_count": 160, "repeats": 3}),
            **({"process_counts": (0, processes)} if processes else {}),
        ),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's evaluation figures.",
    )
    parser.add_argument(
        "figures",
        nargs="+",
        help="figure ids (fig08..fig12, abl-*) or 'all'",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="paper-scale sweeps (minutes) instead of the quick defaults",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the workload seed of every randomized runner",
    )
    _add_flags(parser)
    arguments = parser.parse_args(argv)
    try:
        config = _config_from(arguments)
    except ValueError as error:
        parser.error(str(error))

    runners = _runners(arguments.full, config, arguments.seed)
    requested = (
        list(runners) if "all" in arguments.figures else arguments.figures
    )
    unknown = [name for name in requested if name not in runners]
    if unknown:
        parser.error(
            f"unknown figure(s) {unknown}; choose from {list(runners)}"
        )

    for name in requested:
        started = time.time()
        result = runners[name]()
        print(result.table())
        print(f"({name} ran in {time.time() - started:.1f}s wall)\n")
        if not result.consistent:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
