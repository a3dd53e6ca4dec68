"""Autonomous data sources, wrappers, update messages and workloads."""

from .errors import (
    BrokenQueryError,
    ProbeArityError,
    QueryTimeoutError,
    SourceError,
    SourceUnavailableError,
    TransientSourceError,
    UpdateApplicationError,
)
from .messages import (
    AddAttribute,
    CreateRelation,
    DataUpdate,
    DropAttribute,
    DropRelation,
    RenameAttribute,
    RenameRelation,
    RestructureRelations,
    SchemaChange,
    SourceUpdate,
    UpdateMessage,
)
from .mkb import (
    AttributeReplacement,
    MetaKnowledgeBase,
    RelationReplacement,
)
from .source import DataSource
from .sqlite_source import SqliteCatalog, SqliteDataSource
from .workload import (
    DeleteRandomRow,
    DropRandomAttribute,
    FixedUpdate,
    InsertRandomRow,
    RenameRandomRelation,
    UpdateIntent,
    Workload,
    WorkloadItem,
    random_row,
    random_value,
)
from .wrapper import Wrapper

__all__ = [
    "AddAttribute",
    "AttributeReplacement",
    "BrokenQueryError",
    "CreateRelation",
    "DataSource",
    "DataUpdate",
    "DeleteRandomRow",
    "DropAttribute",
    "DropRandomAttribute",
    "DropRelation",
    "FixedUpdate",
    "InsertRandomRow",
    "MetaKnowledgeBase",
    "ProbeArityError",
    "QueryTimeoutError",
    "RelationReplacement",
    "RenameAttribute",
    "RenameRandomRelation",
    "RenameRelation",
    "RestructureRelations",
    "SchemaChange",
    "SourceError",
    "SourceUnavailableError",
    "SourceUpdate",
    "SqliteCatalog",
    "SqliteDataSource",
    "TransientSourceError",
    "UpdateApplicationError",
    "UpdateIntent",
    "UpdateMessage",
    "Workload",
    "WorkloadItem",
    "Wrapper",
    "random_row",
    "random_value",
]
