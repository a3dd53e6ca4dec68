"""The one configuration object of the experimental warehouse.

Every knob the testbed has is one field of :class:`WarehouseConfig`;
every builder, figure runner, CLI flag and worker process consumes the
same frozen, picklable object.  Adding a knob means one field here, one
use in :func:`repro.experiments.testbed.build_shard_world`, and — if it
should be reachable from the command line — one row in the flag table
of :mod:`repro.experiments.__main__`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..core.strategies import (
    PESSIMISTIC,
    Strategy,
    check_parallel_strategy,
)
from ..faults.plan import FaultPlan
from ..maintenance.grouping import BatchPolicy
from ..recovery.crash import CrashPlan

BACKENDS = ("memory", "sqlite")


@dataclass(frozen=True)
class WarehouseConfig:
    """What world to build and how to run it.

    Validated once, here; a config that constructs is a config every
    builder accepts.  ``replace`` derives a variant (and re-validates).
    """

    #: conflict-handling strategy of every scheduler
    strategy: Strategy = PESSIMISTIC
    #: rows loaded into each of R1..R6 (the paper loads 100 000)
    tuples_per_relation: int = 2000
    #: seed of the initial *data* load (workload streams carry their own)
    seed: int = 3
    #: source implementation: in-process engine or stdlib ``sqlite3``
    backend: str = "memory"
    #: ``None`` = serial Dyno loop, N = parallel executor with N workers
    #: (1 is the honest serial arm of the parallel model)
    parallel_workers: int | None = None
    #: version-stamped snapshot cache (:mod:`repro.cache`)
    snapshot_cache: bool = False
    #: auxiliary self-maintenance store, seeded from the initial load
    #: (:mod:`repro.maintenance.selfmaint`); consulted before the cache
    self_maintenance: bool = False
    #: adaptive group maintenance (:mod:`repro.maintenance.grouping`)
    batch_policy: BatchPolicy | None = None
    #: write-ahead journal + checkpoints (:mod:`repro.recovery`)
    journal: bool = False
    #: checkpoint every N installed units when the journal is armed
    checkpoint_every: int = 8
    #: kill the warehouse per this plan, recover, resume; implies
    #: ``journal``
    crash_plan: CrashPlan | None = None
    #: journal + checkpoint files live here instead of in memory
    #: (``shard-N/`` below it per shard of a sharded warehouse)
    journal_dir: str | None = None
    #: source/link fault injection (:mod:`repro.faults`)
    fault_plan: FaultPlan | None = None
    #: ``None`` = the paper's one 6-way join view ``V`` over all 24
    #: attributes; otherwise one subview ``V1..Vn`` per ``(first, last)``
    #: span, joining ``R{first+1}..R{last}``
    spans: tuple[tuple[int, int], ...] | None = None
    #: requested scheduler shards (a view never splits, so the effective
    #: count is at most the number of views)
    shards: int = 1
    #: run the shard worlds in N OS worker processes; 0 = inline
    shard_processes: int = 0

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.parallel_workers is not None and self.parallel_workers < 1:
            raise ValueError(
                f"parallel_workers must be >= 1, got {self.parallel_workers}"
            )
        check_parallel_strategy(self.strategy, self.parallel_workers)
        if self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.shard_processes < 0:
            raise ValueError(
                f"shard_processes must be >= 0, got {self.shard_processes}"
            )
        if self.crash_plan is not None:
            # The only place a crash plan turns the journal on.
            object.__setattr__(self, "journal", True)
        if self.journal_dir is not None and not self.journal:
            raise ValueError("journal_dir given but the journal is off")

    def replace(self, **changes) -> "WarehouseConfig":
        return dataclasses.replace(self, **changes)

    def view_names(self) -> tuple[str, ...]:
        if self.spans is None:
            return ("V",)
        return tuple(f"V{index + 1}" for index in range(len(self.spans)))


@dataclass(frozen=True)
class ShardPlan:
    """One world of a warehouse: which views it owns, and its knobs.

    ``config`` is the *world's* config — ``spans`` narrowed to
    ``view_names`` (same order), ``journal_dir`` to the world's own
    directory.  Pure picklable data: worker processes rebuild their
    worlds from these."""

    shard_id: int
    view_names: tuple[str, ...]
    config: WarehouseConfig
