"""In-memory relational engine: the storage/query substrate.

This package implements everything the paper's Oracle8i testbed provided:
typed schemas, bag-semantics tables, deltas with signed multiplicities,
an SPJ query AST with the structural rewrites view synchronization needs,
and a hash-join executor.
"""

from .catalog import Catalog
from .delta import Delta, Row
from .errors import (
    AmbiguousAttributeError,
    ArityError,
    DataError,
    DuplicateAttributeError,
    DuplicateRelationError,
    QueryError,
    RelationalError,
    ReproError,
    SchemaError,
    TypeMismatchError,
    UnknownAttributeError,
    UnknownRelationError,
)
from .executor import (
    execute,
    execute_naive,
    executor_mode,
    set_executor_mode,
)
from .plan import (
    CompiledPlan,
    PlanCache,
    compile_plan,
    execute_compiled,
    plan_cache_stats,
)
from .predicate import (
    TRUE,
    AttrComparison,
    AttrRef,
    Comparison,
    Conjunction,
    InParameter,
    InPredicate,
    Negation,
    Predicate,
    attr,
    conjunction,
)
from .query import JoinCondition, RelationRef, SPJQuery
from .schema import Attribute, RelationSchema
from .sql import parse_query, parse_view
from .table import Table
from .types import AttributeType, Value

__all__ = [
    "AmbiguousAttributeError",
    "ArityError",
    "AttrComparison",
    "AttrRef",
    "Attribute",
    "AttributeType",
    "Catalog",
    "Comparison",
    "CompiledPlan",
    "Conjunction",
    "DataError",
    "Delta",
    "DuplicateAttributeError",
    "DuplicateRelationError",
    "InParameter",
    "InPredicate",
    "JoinCondition",
    "Negation",
    "PlanCache",
    "Predicate",
    "QueryError",
    "RelationRef",
    "RelationSchema",
    "RelationalError",
    "ReproError",
    "Row",
    "SPJQuery",
    "SchemaError",
    "TRUE",
    "Table",
    "TypeMismatchError",
    "UnknownAttributeError",
    "UnknownRelationError",
    "Value",
    "attr",
    "compile_plan",
    "conjunction",
    "execute",
    "execute_compiled",
    "execute_naive",
    "executor_mode",
    "parse_query",
    "parse_view",
    "plan_cache_stats",
    "set_executor_mode",
]
