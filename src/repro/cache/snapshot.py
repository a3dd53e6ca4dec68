"""Version-stamped snapshot cache with local delta patching.

Self-maintenance fast path: most maintenance queries re-ask sources
near-identical questions — the same IN-list probe recurs across adjacent
UMQ messages that touch the same join keys, and across the views of a
stack (:class:`~repro.views.multi.MultiViewManager`) maintaining one
unit for every view.  The cache memoizes probe and scan answers keyed by
``(source, query.prepared)`` and stamped with the source's monotone
*commit version* at evaluation time.

The core trick is **local delta patching**: a cached answer stamped at
version *v* < current is not a miss.  The committed updates in the gap
``(v, current]`` are exactly the source's log suffix — state the
stack's UMQ already holds for SWEEP compensation — so the answer is
brought forward *locally* by applying the gap deltas' effect on the
probe query, the same exact single-relation evaluation compensation
relies on (:class:`~repro.relational.executor.BagProbe`), run in the
opposite direction (forward in time instead of backward).  No round trip, no
channel occupancy, no fault exposure.  The gap is pooled per sign, never
netted across signs: the tally a fold returns is the gross number of
effect rows, which is priced (docs/ALGORITHMS.md §Compensation).

Broken-query semantics (Theorem 1) are preserved by construction (the
shared gap rule of :mod:`repro.sources.replica`): any schema change in
the gap invalidates the entry, because a real query
shipped now could have broken on the changed metadata and serving a
stale answer would mask the in-exec detection path.  A DU-only gap means
the source's schema at the stamp and now are identical, so a query that
succeeded at *v* cannot be broken at current — patching is safe exactly
when it is applied.

The cache is deliberately *source-versioned, not view-versioned*: keys
carry the whole query shape, so view definition rewrites simply produce
new keys, and entries built for the old definition age out of the LRU
without any cross-layer invalidation protocol.  Answers are shared
read-only, never copied (docs/ALGORITHMS.md §Coverage policy 2).
"""

from __future__ import annotations

from ..maintenance.compensation import by_schema, effect_on_answer
from ..relational.delta import Delta, Row
from ..relational.errors import ArityError
from ..relational.executor import BagProbe
from ..relational.plan import PlanCache
from ..relational.query import SPJQuery
from ..relational.schema import RelationSchema
from ..relational.sql import parse_query, sourced_sql
from ..relational.table import Table
from ..sim.metrics import Metrics
from ..sources.replica import LocalHit, VersionedEntry, VersionedStore
from ..sources.source import DataSource

#: default bound on resident entries (FIFO-recency eviction)
DEFAULT_MAX_ENTRIES = 4096


class SnapshotCache(VersionedStore):
    """Per-source memo of maintenance-query answers, patchable in place.

    The ``"cache"`` coverage policy over the shared versioned-entry core
    (:mod:`repro.sources.replica`): one entry per ``(source,
    query.prepared)``, insertion-ordered for recency eviction.  Only
    single-relation queries are cacheable: patching needs the exact
    effect of a gap delta on the answer, which is computable locally iff
    the query binds no other relation (the same property that makes
    SWEEP compensation exact — see :mod:`repro.maintenance.compensation`).
    """

    tier = "cache"

    def __init__(
        self,
        metrics: Metrics | None = None,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        plans: PlanCache | None = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(
                f"max_entries must be at least 1, got {max_entries}"
            )
        super().__init__(metrics, plans)
        self.max_entries = max_entries

    @staticmethod
    def cacheable(query: SPJQuery) -> bool:
        return len(query.relations) == 1

    def _put(self, key: tuple, version: int, table: Table) -> None:
        # Refresh recency on overwrite, then evict the oldest.
        self._entries.pop(key, None)
        super()._put(key, version, table)
        while len(self._entries) > self.max_entries:
            self._entries.pop(next(iter(self._entries)))

    # ------------------------------------------------------------------
    # store / serve
    # ------------------------------------------------------------------

    def store(
        self,
        source: DataSource,
        query: SPJQuery,
        answer: Table,
        version: int | None = None,
    ) -> None:
        """Memoize a freshly evaluated answer at the source's version.

        ``version`` defaults to the source's current commit version —
        callers must invoke this at the evaluation instant, before any
        further virtual time (and therefore further commits) passes.
        The answer is kept as it is, so nobody may mutate it afterwards.
        """
        if not self.cacheable(query):
            return
        self._put(
            (source.name, query.prepared),
            source.commit_version if version is None else version,
            answer,
        )

    def serve(self, source: DataSource, query: SPJQuery) -> LocalHit | None:
        """Answer ``query`` from the cache, patching forward if stale.

        Returns ``None`` on a genuine miss *or* when the entry had to be
        dropped (a schema change in the gap — see
        :meth:`~repro.sources.replica.VersionedStore._roll_forward`).  A
        returned hit reflects every update the source has committed up
        to *now* — byte-equal to a zero-latency round trip — and its
        table is the entry's own, read-only.
        """
        if not self.cacheable(query):
            return None
        key = (source.name, query.prepared)
        if key not in self._entries:
            self._count("cache_misses")
            return None
        rows = self._roll_forward(source, key, query)
        if rows is None:
            return None
        # Move-to-end on *every* hit, not just after a non-empty gap: the
        # insertion-ordered dict doubles as the recency order, so an
        # exact hit left in place would age like an untouched entry and
        # the ``max_entries`` loop would evict the hottest keys
        # FIFO-style.
        entry = self._entries[key] = self._entries.pop(key)
        return self._hit(entry.table, rows)

    def _fold(
        self, entry: VersionedEntry, query: SPJQuery, deltas: list[Delta]
    ) -> int:
        alias = query.relations[0].alias
        effects: list[tuple[int, Table | Delta]] = []
        # the answer schemas of the groups nothing was kept from
        unread: list[RelationSchema] = []
        # Empty deltas are grouped too: a drifted schema raises even
        # when its deltas are empty.
        for members in by_schema(deltas):
            probe = BagProbe(query, alias, members[0].schema, self.plans)
            admitted = probe.admitted(members)
            if not admitted and probe.result_schema is not None:
                unread.append(probe.result_schema)
                continue
            keep = probe.keep
            positive: dict[Row, int] = {}
            negative: dict[Row, int] = {}
            for delta in admitted:
                items = keep(delta.validated_items())
                if not items:
                    continue
                signs = {count > 0 for _row, count in items}
                if len(signs) > 1:
                    # Both signs among its kept rows: they may cancel on
                    # an answer row, which the tally must see.
                    effect = effect_on_answer(query, alias, delta, self.plans)
                    effects.append((1, effect))
                    continue
                bag = positive if True in signs else negative
                for row, count in items:
                    bag[row] = bag.get(row, 0) + count
            effects += probe.parts([*positive.items(), *negative.items()])
        # Every bag is evaluated: only now may the entry change.
        arity = entry.table.schema.arity
        for schema in [*unread, *(effect.schema for _sign, effect in effects)]:
            if schema.arity != arity:
                raise ArityError(
                    f"cannot fold effect of arity {schema.arity} "
                    f"into answer of arity {arity}"
                )
        rows = sum(
            abs(count)
            for _sign, effect in effects
            for _row, count in effect.items()
        )
        if rows:
            corrected = dict(entry.table.items())
            for sign, effect in effects:
                for row, count in effect.items():
                    corrected[row] = corrected.get(row, 0) + sign * count
            # Rows already passed validation on the way into the cache
            # and the deltas came from committed updates — adopt the
            # positive part in bulk rather than re-validating per row.
            entry.table = Table.from_counts(
                entry.table.schema,
                {row: count for row, count in corrected.items() if count > 0},
            )
        self._count("patched_answers")
        return rows

    # ------------------------------------------------------------------
    # checkpoint plumbing: keys travel as parseable SQL text
    # ------------------------------------------------------------------

    def export_entries(self) -> list[tuple[str, str, int, Table]]:
        return [
            (source, sourced_sql(shape.bind(parameters)), version, table)
            for source, (shape, parameters), version, table
            in super().export_entries()
        ]

    def restore_entries(
        self, entries: list[tuple[str, str, int, Table]]
    ) -> int:
        return super().restore_entries(
            [
                (source, parse_query(text).prepared, version, table)
                for source, text, version, table in entries
            ]
        )
