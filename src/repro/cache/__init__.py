"""Snapshot caching of maintenance-query answers (self-maintenance).

See :mod:`repro.cache.snapshot` for the versioning and patching rules.
"""

from .snapshot import SnapshotCache, normalized_query_key

__all__ = ["SnapshotCache", "normalized_query_key"]
