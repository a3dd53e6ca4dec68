"""Version-stamped local copies of source state: the local-answer tier.

The view manager can answer a maintenance query *without* shipping it
whenever it holds a local copy of the relevant source state stamped
with the source's commit version (:attr:`DataSource.commit_version`):
the committed updates in the gap ``(stamp, now]`` are exactly the log
suffix :meth:`DataSource.updates_since` returns — read per relation
through :meth:`DataSource.data_deltas_since` — so the copy is rolled
forward locally and the answer equals a zero-latency round trip's.

Theorem 1 reads "a maintenance query broke => a conflicting schema
change committed", so a local copy must never outlive a schema change:
a real query shipped now could have broken on the changed metadata, and
serving the stale copy would mask in-exec detection.  That rule — drop
the entry when an SC sits in the version gap — is written once, in
:meth:`VersionedStore._roll_forward`.

:class:`VersionedStore` is the shared core (stamped entries, the gap
rule, hit accounting, checkpoint export/restore).  What a store
*covers* is its subclass's policy: the snapshot cache
(:mod:`repro.cache.snapshot`) keeps one query's answer per entry, the
self-maintenance store (:mod:`repro.maintenance.selfmaint`) one
projected relation.  The engine consults the armed stores aux first,
then cache (:meth:`~repro.sim.engine.SimEngine.serve_local`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..relational.delta import Delta
from ..relational.errors import RelationalError
from ..relational.query import SPJQuery
from ..relational.table import Table
from ..sim.metrics import Metrics
from .source import DataSource


@dataclass(frozen=True)
class LocalHit:
    """One locally served answer plus the work it took to produce it."""

    table: Table
    #: which store answered: ``"aux"`` or ``"cache"``
    tier: str
    #: signed tuples folded in while rolling the entry through the
    #: version gap (0 for an exact-version hit); priced per row
    rows: int


@dataclass
class VersionedEntry:
    """A local copy reflecting exactly the commits in ``log[:version]``."""

    version: int
    table: Table


class VersionedStore:
    """Stamped entries keyed ``(source name, sub-key)``.

    Subclasses set :attr:`tier` (which also prefixes their counters on
    the engine :class:`~repro.sim.metrics.Metrics`), define ``serve``
    (key + coverage), :meth:`_fold` (apply gap deltas to an entry) and
    their own seeding.
    """

    tier: str

    def __init__(self, metrics: Metrics | None = None) -> None:
        self.metrics = metrics if metrics is not None else Metrics()
        #: ``(source name, sub-key)`` -> entry; the sub-key is the
        #: policy's (a relation name, a query's ``prepared`` pair)
        self._entries: dict[tuple, VersionedEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def _count(self, counter: str, amount: int = 1) -> None:
        setattr(self.metrics, counter, getattr(self.metrics, counter) + amount)

    def _put(self, key: tuple, version: int, table: Table) -> None:
        self._entries[key] = VersionedEntry(version, table)

    def _fold(
        self, entry: VersionedEntry, query: SPJQuery, deltas: list[Delta]
    ) -> int:
        """Bring ``entry.table`` forward through ``deltas``; return the
        signed tuples applied.  Must leave the entry untouched if it
        raises :class:`RelationalError`."""
        raise NotImplementedError

    def _roll_forward(
        self, source: DataSource, key: tuple, query: SPJQuery
    ) -> int | None:
        """Roll entry ``key`` through the source's log gap and restamp
        it at the current version; return the tuples folded in.

        Returns ``None`` — with the entry dropped and a miss counted —
        when a schema change committed since the stamp (Theorem 1: the
        probe must travel so in-exec detection can see it; counted as
        an invalidation), or when folding hits schema drift the gap
        scan did not explain (be conservative, go remote).
        """
        entry = self._entries[key]
        deltas = source.data_deltas_since(
            query.relations[0].relation, entry.version
        )
        if deltas is None:
            return self._drop(key, f"{self.tier}_invalidations_sc")
        try:
            rows = self._fold(entry, query, deltas) if deltas else 0
        except RelationalError:
            return self._drop(key)
        entry.version = source.commit_version
        return rows

    def _drop(self, key: tuple, *counters: str) -> None:
        del self._entries[key]
        for counter in (*counters, f"{self.tier}_misses"):
            self._count(counter)

    def _hit(self, table: Table, rows: int) -> LocalHit:
        self._count(f"{self.tier}_hits")
        self._count("saved_round_trips")
        return LocalHit(table, self.tier, rows)

    # ------------------------------------------------------------------
    # crash / checkpoint plumbing
    # ------------------------------------------------------------------

    def clear(self) -> None:
        """Drop every entry (the store is volatile across crashes)."""
        self._entries.clear()

    def export_entries(self) -> list[tuple[str, str, int, Table]]:
        """Snapshot the entries for a warehouse checkpoint as
        ``(source name, sub-key, version stamp, table)`` rows in
        insertion order; tables are copied so the checkpoint cannot
        alias live state.  JSON encoding is the checkpoint layer's
        business."""
        return [
            (source, key, entry.version, entry.table.copy())
            for (source, key), entry in self._entries.items()
        ]

    def restore_entries(
        self, entries: list[tuple[str, str, int, Table]]
    ) -> int:
        """Re-seed from checkpointed entries (post-recovery).

        The caller filters by watermark — entries stamped newer than
        the committed-update watermark must not be passed in.  Returns
        how many entries were installed."""
        for source, key, version, table in entries:
            self._put((source, key), version, table.copy())
        return len(entries)
