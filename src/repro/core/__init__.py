"""Dyno: dependency detection and correction (the paper's contribution)."""

from .anomalies import AnomalyType
from .correction import CorrectionResult, correct, merge_all
from .dependencies import (
    Dependency,
    DependencyKind,
    Footprint,
    footprint_of_query,
    footprint_of_update,
)
from .incremental import (
    DetectionResult,
    FootprintCache,
    IncrementalDependencyGraph,
    lineage_affecting,
)
from .parallel import ParallelScheduler
from .scheduler import DynoScheduler, SchedulerStats
from .sharding import (
    Shard,
    ShardedWarehouse,
    ShardRouter,
    assign_views,
)
from .strategies import (
    BLIND_MERGE,
    NAIVE,
    OPTIMISTIC,
    PESSIMISTIC,
    BrokenQueryPolicy,
    Strategy,
)

__all__ = [
    "AnomalyType",
    "BLIND_MERGE",
    "BrokenQueryPolicy",
    "CorrectionResult",
    "Dependency",
    "DependencyKind",
    "DetectionResult",
    "DynoScheduler",
    "ParallelScheduler",
    "Footprint",
    "FootprintCache",
    "IncrementalDependencyGraph",
    "NAIVE",
    "OPTIMISTIC",
    "PESSIMISTIC",
    "SchedulerStats",
    "Shard",
    "ShardRouter",
    "ShardedWarehouse",
    "Strategy",
    "assign_views",
    "correct",
    "footprint_of_query",
    "footprint_of_update",
    "lineage_affecting",
    "merge_all",
]
