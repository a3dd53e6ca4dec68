"""Snapshot caching of maintenance-query answers (self-maintenance).

See :mod:`repro.cache.snapshot` for the versioning and patching rules.
"""

from .snapshot import SnapshotCache

__all__ = ["SnapshotCache"]
