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

from importlib import import_module


def bind_on_first_use(namespace: dict, table: dict) -> tuple:
    """A package's PEP 562 ``(__getattr__, __all__)``, given its
    ``globals()``: ``table`` maps each submodule (a tuple of its path's
    names when nested deeper) to the names it exports through the
    package.  A name is imported on first use and then bound in the
    package, as an eager import would have bound it; ``__all__`` is
    every name of the table."""
    package = namespace["__name__"]
    where = {
        name: module if isinstance(module, str) else ".".join(module)
        for module, names in table.items()
        for name in names
    }

    def __getattr__(name: str):
        if name not in where:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(import_module(f".{where[name]}", package), name)
        namespace[name] = value
        return value

    return __getattr__, list(where)


__version__ = "1.0.0"

__getattr__, __all__ = bind_on_first_use(
    globals(),
    {
        "cache": ("SnapshotCache",),
        "core": (
            "BLIND_MERGE",
            "NAIVE",
            "OPTIMISTIC",
            "PESSIMISTIC",
            "AnomalyType",
            "Dependency",
            "DependencyKind",
            "DynoScheduler",
            "ParallelScheduler",
            "Shard",
            "ShardRouter",
            "ShardedWarehouse",
            "Strategy",
            "assign_views",
            "correct",
        ),
        "dyda": ("DyDaError", "DyDaSystem"),
        "faults": (
            "CrashWindow",
            "FaultInjector",
            "FaultPlan",
            "FaultStats",
            "LinkFault",
            "RetryPolicy",
            "TransientFault",
        ),
        "frontend": (
            "READ_COMMITTED_VERSION",
            "READ_LATEST",
            "ReadFrontEnd",
            "ReadReport",
            "ReadWorkload",
        ),
        "maintenance": ("BatchPolicy",),
        "recovery": (
            "CRASH_POINTS",
            "CrashInjector",
            "CrashPlan",
            "FileCheckpointStore",
            "FileJournalSink",
            "MaintenanceJournal",
            "MemoryCheckpointStore",
            "MemoryJournalSink",
            "RecoveryHarness",
            "RecoveryReport",
            "SchedulerCrash",
            "recover",
            "simulate_crash",
        ),
        "relational": (
            "AttrRef",
            "Attribute",
            "AttributeType",
            "Comparison",
            "Delta",
            "InPredicate",
            "JoinCondition",
            "RelationRef",
            "RelationSchema",
            "SPJQuery",
            "Table",
            "attr",
            "execute",
            "parse_query",
            "parse_view",
        ),
        "sim": ("CostModel", "SimEngine"),
        "sources": (
            "AddAttribute",
            "AttributeReplacement",
            "BrokenQueryError",
            "CreateRelation",
            "DataSource",
            "DataUpdate",
            "DropAttribute",
            "DropRelation",
            "MetaKnowledgeBase",
            "QueryTimeoutError",
            "RelationReplacement",
            "RenameAttribute",
            "RenameRelation",
            "RestructureRelations",
            "SourceUnavailableError",
            "SqliteDataSource",
            "TransientSourceError",
            "UpdateMessage",
            "Workload",
            "WorkloadItem",
            "Wrapper",
        ),
        "views": (
            "ConsistencyReport",
            "MaintenanceUnit",
            "MaterializedView",
            "MultiViewManager",
            "UpdateMessageQueue",
            "ViewDefinition",
            "ViewManager",
            "check_convergence",
        ),
        ("views", "audit"): (
            "AuditingScheduler",
            "StrongConsistencyViolation",
        ),
    },
)
