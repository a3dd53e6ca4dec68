"""Self-maintaining views: auxiliary data answering maintenance locally.

The snapshot cache (:mod:`repro.cache.snapshot`) memoizes *answers* —
it only helps when an identical probe recurs.  The auxiliary store kept
here goes one step further along the self-maintenance trajectory
(Quass et al.; arXiv 1406.7685): for every relation a registered view
joins, the warehouse keeps a **projected replica** — the relation
restricted to the columns the view's maintenance probes can ever
reference (:func:`~repro.maintenance.decompose.needed_columns`, unioned
across views).  The replica is brought forward *locally* through the
source's committed log, so any single-relation maintenance query whose
referenced attributes are covered is evaluated in the warehouse with
**zero source round trips** — first-time probes included, which is what
the cache can never do.

Exactness rests on two linearity facts the executor guarantees:

* projection commutes with selection/projection — evaluating a probe
  over the replica (whose columns cover every attribute the probe
  references) yields a bag byte-identical to evaluating it over the
  full relation;
* projection is linear in the delta — projecting each committed gap
  delta onto the stored columns and sign-merging it into the replica
  reproduces the projection of the new relation state exactly.

Broken-query semantics (Theorem 1) are the shared gap rule of
:mod:`repro.sources.replica`: any schema change in the version gap
invalidates the entry (drop/rename could have broken a real query
shipped now; serving locally would mask in-exec detection).  The entry
is rebuilt for free the next time a full scan of
the relation travels on the wire — view adaptation's scans are exactly
such queries — or re-seeded from the catalog when a view (re)registers.

Interaction with the rest of the stack:

* the engine consults the store *before* the snapshot cache, which
  stays as the second line of defence for non-covered queries;
* parallel workers serve aux hits channel-free (no admission, no slot),
  exactly like cache hits, with the same dispatch-order install and
  taint-restart discipline;
* a fully self-maintainable coalesced batch pays zero trips — the
  grouping layer needs no changes, its per-relation probes simply all
  hit the store;
* recovery checkpoints the replicas with their version stamps and
  restores them under the same contiguous-watermark rule as cache
  entries; a crash clears the volatile store.
"""

from __future__ import annotations

import operator
from collections import Counter

from ..relational.delta import Delta
from ..relational.executor import execute
from ..relational.plan import PlanCache
from ..relational.predicate import TruePredicate
from ..relational.query import SPJQuery
from ..relational.schema import RelationSchema
from ..relational.table import Table
from ..sim.metrics import Metrics
from ..sources.replica import LocalHit, VersionedEntry, VersionedStore
from ..sources.source import DataSource
from .decompose import needed_columns


class SelfMaintenanceStore(VersionedStore):
    """Projected per-relation replicas, synced from the committed log.

    The ``"aux"`` coverage policy over the shared versioned-entry core
    (:mod:`repro.sources.replica`).  Keys are ``(source name, relation
    name)`` — relation-versioned, not query-versioned: one replica
    answers *every* covered probe over the relation, which is what
    makes first-time probes free.  A replica's table holds exactly its
    stored columns (a cover of every registered requirement).
    """

    tier = "aux"

    def __init__(
        self, metrics: Metrics | None = None, plans: PlanCache | None = None
    ) -> None:
        super().__init__(metrics, plans)
        #: (source, relation) -> union of column names any registered
        #: view's maintenance can reference on that relation
        self._required: dict[tuple[str, str], set[str]] = {}

    # ------------------------------------------------------------------
    # registration / seeding
    # ------------------------------------------------------------------

    def register_view(self, query: SPJQuery) -> None:
        """Record the columns ``query``'s maintenance may reference.

        Safe to call repeatedly (view rewrites re-register their new
        definition); a registration that widens an existing requirement
        drops the now-too-narrow replica, to be re-seeded or rebuilt
        from the next travelling full scan.
        """
        for ref in query.relations:
            key = (ref.source, ref.relation)
            columns = set(needed_columns(query, ref.alias))
            required = self._required.setdefault(key, set())
            required |= columns
            replica = self._entries.get(key)
            if replica is not None and not required.issubset(
                replica.table.schema.attribute_names
            ):
                del self._entries[key]

    def seed_from_source(self, source: DataSource) -> int:
        """Build replicas from the source's live catalog (free, like the
        initial view load — no maintenance query ships).  Returns how
        many replicas were (re)built."""
        built = 0
        version = source.commit_version
        for (source_name, relation), required in self._required.items():
            if source_name != source.name or not source.has_relation(
                relation
            ):
                continue
            schema = source.schema_of(relation)
            if not required.issubset(schema.attribute_names):
                continue
            columns = tuple(
                name for name in schema.attribute_names if name in required
            )
            table = _project_table(
                source.catalog.table(relation), schema, columns, relation
            )
            self._put((source_name, relation), version, table)
            built += 1
        return built

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------

    def _covering_key(self, query: SPJQuery) -> tuple[str, str] | None:
        """Key of the replica that can answer ``query`` (modulo the
        version gap), or ``None``."""
        if len(query.relations) != 1 or query.joins:
            return None
        ref = query.relations[0]
        key = (ref.source, ref.relation)
        replica = self._entries.get(key)
        if replica is None:
            return None
        referenced = {
            attr.name
            for attr in query.all_attribute_refs()
            if attr.relation == ref.alias
        }
        if not referenced.issubset(replica.table.schema.attribute_names):
            return None
        return key

    def serve(self, source: DataSource, query: SPJQuery) -> LocalHit | None:
        """Answer ``query`` from the replica, syncing it forward first.

        Returns ``None`` when coverage fails or the replica had to be
        dropped (a schema change in the gap — see
        :meth:`~repro.sources.replica.VersionedStore._roll_forward`).  A
        returned hit reflects every update committed up to *now*,
        byte-identical to a zero-latency round trip.
        """
        key = self._covering_key(query)
        if key is None:
            self._count("aux_misses")
            return None
        applied = self._roll_forward(source, key, query)
        if applied is None:
            return None
        self._count("aux_applied_rows", applied)
        alias = query.relations[0].alias
        answer = execute(query, {alias: self._entries[key].table}, self.plans)
        return self._hit(answer, applied)

    def _fold(
        self, entry: VersionedEntry, query: SPJQuery, deltas: list[Delta]
    ) -> int:
        columns = entry.table.schema.attribute_names
        projected = Delta(entry.table.schema)
        for delta in deltas:
            _project_delta(delta, columns, projected)
        applied = sum(abs(count) for _row, count in projected.items())
        if applied:
            entry.table.apply_delta(projected)
        return applied

    # ------------------------------------------------------------------
    # observation (free rebuild from travelling full scans)
    # ------------------------------------------------------------------

    def observe(
        self, source: DataSource, query: SPJQuery, answer: Table
    ) -> bool:
        """Re-seed a replica from a full scan that travelled anyway.

        View adaptation ships full-relation scans (never cacheable);
        their answers are exactly a projected replica at the evaluation
        instant, so an invalidated entry rebuilds itself for free on the
        first post-SC adaptation round.  Only selection-free
        single-relation scans covering the registered requirement are
        observed — a filtered or partial answer must never masquerade as
        the whole relation.
        """
        if (
            len(query.relations) != 1
            or query.joins
            or not isinstance(query.selection, TruePredicate)
        ):
            return False
        ref = query.relations[0]
        key = (ref.source, ref.relation)
        required = self._required.get(key)
        if required is None or not required.issubset(
            answer.schema.attribute_names
        ):
            return False
        self._put(key, source.commit_version, answer.copy())
        return True

    def restore_entries(
        self, entries: list[tuple[str, str, int, Table]]
    ) -> int:
        """As the base, but entries narrower than the (re-registered)
        requirement are skipped — they would fail coverage on every
        serve anyway.  Registrations describe the views, not the data,
        so they survive :meth:`clear`."""
        return super().restore_entries(
            [
                (source, relation, version, table)
                for source, relation, version, table in entries
                if self._required.get((source, relation), set()).issubset(
                    table.schema.attribute_names
                )
            ]
        )


def _projector(indexes: list[int]):
    """Row projector over column positions at C speed.

    ``operator.itemgetter`` with a single position returns a scalar,
    and with none it cannot be built at all — both cases must still
    yield tuples to stay rows.
    """
    if not indexes:
        return lambda row: ()
    if len(indexes) == 1:
        index = indexes[0]
        return lambda row: (row[index],)
    return operator.itemgetter(*indexes)


def _project_table(
    table: Table,
    schema: RelationSchema,
    columns: tuple[str, ...],
    relation: str,
) -> Table:
    """Project ``table`` onto ``columns`` (bag semantics preserved)."""
    project = _projector([schema.index_of(name) for name in columns])
    projected_schema = RelationSchema(
        relation, tuple(schema.attribute(name) for name in columns)
    )
    counts: Counter = Counter()
    get = counts.get
    for row, count in table.items():
        key = project(row)
        counts[key] = get(key, 0) + count
    # Values came out of a validated table; adopt the bag wholesale.
    return Table.from_counts(projected_schema, counts)


def _project_delta(
    delta: Delta, columns: tuple[str, ...], into: Delta
) -> None:
    """Sign-merge ``delta`` projected onto ``columns`` into ``into``."""
    schema = delta.schema
    project = _projector([schema.index_of(name) for name in columns])
    for row, count in delta.items():
        into.add(project(row), count)
