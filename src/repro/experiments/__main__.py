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
from functools import partial
from typing import Callable

from ..maintenance.grouping import BatchPolicy
from ..recovery import CrashPlan
from . import table
from .config import WarehouseConfig


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
    """Figure id -> zero-argument runner, one per row of the experiment
    table at this scale.  Each row says which of ``config``'s fields
    (the command line's knobs) reach it; ``workload_seed`` overrides
    the update-stream seed of every runner that draws a randomized
    stream (fig09's is fixed)."""
    return {
        row.id: partial(row, full, config, workload_seed)
        for row in table.EXPERIMENTS
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
