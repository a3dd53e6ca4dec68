"""Autonomous data sources, wrappers, update messages and workloads."""

from .. import bind_on_first_use

__getattr__, __all__ = bind_on_first_use(
    globals(),
    {
        "errors": (
            "BrokenQueryError",
            "ProbeArityError",
            "QueryTimeoutError",
            "SourceError",
            "SourceUnavailableError",
            "TransientSourceError",
            "UpdateApplicationError",
        ),
        "messages": (
            "AddAttribute",
            "CreateRelation",
            "DataUpdate",
            "DropAttribute",
            "DropRelation",
            "RenameAttribute",
            "RenameRelation",
            "RestructureRelations",
            "SchemaChange",
            "SourceUpdate",
            "UpdateMessage",
        ),
        "mkb": (
            "AttributeReplacement",
            "MetaKnowledgeBase",
            "RelationReplacement",
        ),
        "source": ("DataSource",),
        "sqlite_source": ("SqliteCatalog", "SqliteDataSource"),
        "workload": (
            "DeleteRandomRow",
            "DropRandomAttribute",
            "FixedUpdate",
            "InsertRandomRow",
            "RenameRandomRelation",
            "UpdateIntent",
            "Workload",
            "WorkloadItem",
            "random_row",
            "random_value",
        ),
        "wrapper": ("Wrapper",),
    },
)
