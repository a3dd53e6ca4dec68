"""Maintenance algorithms: VM (with compensation), VS, VA, batching."""

from .batch import (
    combine_schema_changes,
    data_updates_of,
    schema_changes_of,
)
from .compensation import (
    CompensationLog,
    compensate_answer,
    effect_on_answer,
)
from .grouping import (
    BatchPolicy,
    coalesce_data_updates,
    find_safe_runs,
    merge_runs,
)
from .decompose import (
    bfs_alias_order,
    needed_columns,
    probe_query,
    probe_sweep,
    pushdown_selection,
    scan_query,
    subquery_over,
)
from .va import adapt_view
from .vm import maintain_data_update
from .vs import (
    RewriteReport,
    SynchronizationResult,
    ViewSynchronizationError,
    ViewSynchronizer,
)

__all__ = [
    "BatchPolicy",
    "CompensationLog",
    "RewriteReport",
    "SynchronizationResult",
    "ViewSynchronizationError",
    "ViewSynchronizer",
    "adapt_view",
    "bfs_alias_order",
    "coalesce_data_updates",
    "combine_schema_changes",
    "compensate_answer",
    "data_updates_of",
    "effect_on_answer",
    "find_safe_runs",
    "merge_runs",
    "maintain_data_update",
    "needed_columns",
    "probe_query",
    "probe_sweep",
    "pushdown_selection",
    "scan_query",
    "schema_changes_of",
    "subquery_over",
]
