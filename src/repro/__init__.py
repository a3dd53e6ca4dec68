"""Dyno — detection and correction of conflicting source updates for
materialized view maintenance.

A from-scratch reproduction of Chen, Chen, Zhang & Rundensteiner,
*Detection and Correction of Conflicting Source Updates for View
Maintenance*, ICDE 2004, including every substrate the paper relies on:
an in-memory relational engine, autonomous source servers, a
deterministic discrete-event concurrency simulator, the VM/VS/VA
maintenance algorithms (with SWEEP-style compensation and EVE-style
synchronization), and the Dyno scheduler itself.

Quickstart::

    from repro import (
        SimEngine, DataSource, ViewManager, ViewDefinition,
        DynoScheduler, PESSIMISTIC,
    )

See ``examples/quickstart.py`` for a complete runnable scenario.
"""

from .dyda import DyDaError, DyDaSystem
from .core import (
    BLIND_MERGE,
    NAIVE,
    OPTIMISTIC,
    PESSIMISTIC,
    AnomalyType,
    Dependency,
    DependencyKind,
    DynoScheduler,
    ParallelScheduler,
    Shard,
    ShardRouter,
    ShardedWarehouse,
    Strategy,
    assign_views,
    correct,
)
from .frontend import (
    READ_COMMITTED_VERSION,
    READ_LATEST,
    ReadFrontEnd,
    ReadReport,
    ReadWorkload,
)
from .relational import (
    AttrRef,
    Attribute,
    AttributeType,
    Comparison,
    Delta,
    InPredicate,
    JoinCondition,
    RelationRef,
    RelationSchema,
    SPJQuery,
    Table,
    attr,
    execute,
    parse_query,
    parse_view,
)
from .faults import (
    CrashWindow,
    FaultInjector,
    FaultPlan,
    FaultStats,
    LinkFault,
    RetryPolicy,
    TransientFault,
)
from .sim import CostModel, SimEngine
from .sources import (
    AddAttribute,
    AttributeReplacement,
    BrokenQueryError,
    CreateRelation,
    DataSource,
    DataUpdate,
    DropAttribute,
    DropRelation,
    MetaKnowledgeBase,
    QueryTimeoutError,
    RelationReplacement,
    RenameAttribute,
    RenameRelation,
    RestructureRelations,
    SourceUnavailableError,
    SqliteDataSource,
    TransientSourceError,
    UpdateMessage,
    Workload,
    WorkloadItem,
    Wrapper,
)
from .views.audit import AuditingScheduler, StrongConsistencyViolation
from .views import (
    ConsistencyReport,
    MaintenanceUnit,
    MaterializedView,
    MultiViewManager,
    UpdateMessageQueue,
    ViewDefinition,
    ViewManager,
    check_convergence,
)

# after .views: the cache rides on maintenance/compensation, which the
# views package is mid-way through importing at the top of this module
from .cache import SnapshotCache
from .maintenance.grouping import BatchPolicy
from .recovery import (
    CRASH_POINTS,
    CrashInjector,
    CrashPlan,
    FileCheckpointStore,
    FileJournalSink,
    MaintenanceJournal,
    MemoryCheckpointStore,
    MemoryJournalSink,
    RecoveryHarness,
    RecoveryReport,
    SchedulerCrash,
    recover,
    simulate_crash,
)

__version__ = "1.0.0"

__all__ = [
    "AddAttribute",
    "AnomalyType",
    "AttrRef",
    "Attribute",
    "AuditingScheduler",
    "AttributeReplacement",
    "AttributeType",
    "BLIND_MERGE",
    "BatchPolicy",
    "BrokenQueryError",
    "CRASH_POINTS",
    "Comparison",
    "ConsistencyReport",
    "CostModel",
    "CrashInjector",
    "CrashPlan",
    "CrashWindow",
    "CreateRelation",
    "DataSource",
    "DataUpdate",
    "Delta",
    "Dependency",
    "DependencyKind",
    "DropAttribute",
    "DropRelation",
    "DyDaError",
    "DyDaSystem",
    "DynoScheduler",
    "ParallelScheduler",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "FileCheckpointStore",
    "FileJournalSink",
    "InPredicate",
    "JoinCondition",
    "LinkFault",
    "MaintenanceJournal",
    "MaintenanceUnit",
    "MaterializedView",
    "MemoryCheckpointStore",
    "MemoryJournalSink",
    "MetaKnowledgeBase",
    "MultiViewManager",
    "NAIVE",
    "OPTIMISTIC",
    "PESSIMISTIC",
    "QueryTimeoutError",
    "RecoveryHarness",
    "RecoveryReport",
    "RelationRef",
    "RelationReplacement",
    "RelationSchema",
    "RenameAttribute",
    "RenameRelation",
    "RestructureRelations",
    "RetryPolicy",
    "SPJQuery",
    "SchedulerCrash",
    "SimEngine",
    "SnapshotCache",
    "SourceUnavailableError",
    "SqliteDataSource",
    "Strategy",
    "StrongConsistencyViolation",
    "Table",
    "TransientFault",
    "TransientSourceError",
    "UpdateMessage",
    "UpdateMessageQueue",
    "ViewDefinition",
    "ViewManager",
    "Workload",
    "WorkloadItem",
    "Wrapper",
    "attr",
    "check_convergence",
    "correct",
    "execute",
    "parse_query",
    "parse_view",
    "recover",
    "simulate_crash",
]
