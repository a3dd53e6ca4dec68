"""Autonomous data source servers.

A :class:`DataSource` owns a catalog of relations and commits updates
*autonomously* — there is no coordination or locking with the view
manager, which is precisely what creates the paper's anomalies.  Each
commit is applied locally, sequenced, logged and pushed to subscribed
wrappers.

Queries against a source are answered from the *current* state.  If the
query references metadata that a concurrent schema change removed or
renamed, the source raises :class:`BrokenQueryError` (the broken-query
anomaly); if concurrent data updates committed before the query arrived,
their effect silently leaks into the answer (the duplication anomaly that
compensation must undo).
"""

from __future__ import annotations

import bisect
import itertools
from functools import partial
from typing import Callable, Iterable

from ..relational.catalog import Catalog
from ..relational.delta import Delta, Row
from ..relational.errors import SchemaError, UnknownRelationError
from ..relational.executor import execute
from ..relational.plan import PlanCache
from ..relational.query import SPJQuery
from ..relational.rows import validated_row
from ..relational.schema import RelationSchema
from ..relational.table import Table
from ..relational.types import Value
from .errors import BrokenQueryError, UpdateApplicationError
from .messages import (
    AddAttribute,
    CreateRelation,
    DataUpdate,
    DropAttribute,
    DropRelation,
    RenameAttribute,
    RenameRelation,
    RestructureRelations,
    SourceUpdate,
    UpdateMessage,
)

Subscriber = Callable[[UpdateMessage], None]
#: closed ``(lo, hi)`` range over a relation's first attribute, its key
KeyRange = tuple[Value, Value]
#: admitted ``(query shape, *schemas)`` keys a source remembers before
#: it starts over (:meth:`DataSource.admitted_schemas`)
ADMITTED_MEMO_CAPACITY = 1 << 12


def _follow(
    ranges: dict[KeyRange, dict[Row, None]], table: Table, delta: Delta
) -> bool:
    """Bring the key-range candidates of ``table`` past ``delta``, just
    applied to it; ``False`` when they cannot follow and must go."""
    validate = partial(validated_row, table.schema)
    items = [(validate(row), count) for row, count in delta.items()]
    if len(items) > 1 and len({row for row, _ in items}) < len(items):
        # two rows stored as one (integers beyond 2**53 in a FLOAT
        # column): the apply may have moved that row to the end
        return False
    for row, count in items:
        key = row[0]
        if key is None:
            continue
        for (lo, hi), candidates in ranges.items():
            if lo <= key <= hi:
                if count > 0:
                    candidates.setdefault(row)  # its first copy
                elif not table.count(row):
                    del candidates[row]  # its last copy
    return True


class DataSource:
    """One autonomous source server.

    A key-range delete picks from kept candidates: per ``(relation,
    key_range)`` asked about, the relation's distinct in-range rows in
    first-occurrence order, built by one scan on first use, followed
    per data update and dropped on every schema change
    (docs/ALGORITHMS.md §Per-update work)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.catalog = Catalog(name)
        self.log: list[UpdateMessage] = []
        #: derived from ``log[:_indexed]``, extended lazily by
        #: :meth:`data_deltas_since`: relation -> (commit versions,
        #: deltas) of its data updates, and the version of the latest
        #: schema change (0: none)
        self._indexed = 0
        self._data_log: dict[str, tuple[list[int], list[Delta]]] = {}
        self._schema_changed_at = 0
        self._subscribers: list[Subscriber] = []
        self._next_seqno = 1
        #: fault-injection hook consulted at every query entry; the
        #: engine installs one when faults are armed
        #: (:meth:`~repro.sim.engine.SimEngine.install_faults`).  It may
        #: raise :class:`~repro.sources.errors.TransientSourceError` to
        #: simulate outages, timeouts and crash windows.
        self.fault_gate: Callable[[str], None] | None = None
        #: the world's plan cache, handed in by the engine's add_source
        self.plans: PlanCache | None = None
        #: ``(query shape, *current schemas)`` keys already admitted
        self._admitted: set[tuple] = set()
        #: relation -> key range -> its distinct in-range rows (as keys,
        #: in first-occurrence order): what a key-range delete picks from
        self._candidates: dict[str, dict[KeyRange, dict[Row, None]]] = {}

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------

    def create_relation(
        self, schema: RelationSchema, rows: Iterable = ()
    ) -> Table:
        """Initial (pre-integration) table creation; not logged."""
        return self.catalog.create(schema, rows)

    def subscribe(self, subscriber: Subscriber) -> None:
        """Register a wrapper callback invoked after every commit."""
        self._subscribers.append(subscriber)

    def clear_subscribers(self) -> int:
        """Sever every subscription (a crashed warehouse's wrappers are
        gone; the autonomous source keeps committing regardless).
        Returns how many subscriptions were dropped."""
        dropped = len(self._subscribers)
        self._subscribers.clear()
        return dropped

    # ------------------------------------------------------------------
    # autonomous commits
    # ------------------------------------------------------------------

    def commit(self, update: SourceUpdate, at: float = 0.0) -> UpdateMessage:
        """Apply ``update`` locally and broadcast the committed message.

        The update is applied *before* notification, so by the time the
        view manager learns of it the source state has already moved on —
        source updates cannot be aborted (Section 3.5).
        """
        self._apply(update)
        message = UpdateMessage(
            source=self.name,
            seqno=self._next_seqno,
            committed_at=at,
            payload=update,
        )
        self._next_seqno += 1
        self.log.append(message)
        for subscriber in self._subscribers:
            subscriber(message)
        return message

    def _apply(self, update: SourceUpdate) -> None:
        try:
            self._dispatch(update)
        except SchemaError as exc:
            raise UpdateApplicationError(
                f"source {self.name!r} failed to apply "
                f"{update.describe()}: {exc}"
            ) from exc

    def _dispatch(self, update: SourceUpdate) -> None:
        if isinstance(update, DataUpdate):
            table = self.catalog.table(update.relation)
            # held apart while the delta applies: a failed apply drops them
            ranges = self._candidates.pop(update.relation, None)
            table.apply_delta(update.delta)
            if ranges is not None and _follow(ranges, table, update.delta):
                self._candidates[update.relation] = ranges
            return
        self._candidates.clear()
        if isinstance(update, RenameRelation):
            self.catalog.rename(update.old, update.new)
        elif isinstance(update, RenameAttribute):
            self.catalog.table(update.relation).rename_attribute(
                update.old, update.new
            )
        elif isinstance(update, DropAttribute):
            self.catalog.table(update.relation).drop_attribute(
                update.attribute
            )
        elif isinstance(update, AddAttribute):
            self.catalog.table(update.relation).add_attribute(
                update.attribute, update.default
            )
        elif isinstance(update, DropRelation):
            dropped = self.catalog.drop(update.relation)
            update.dropped_extent = dropped.copy()
        elif isinstance(update, CreateRelation):
            self.catalog.create(update.schema, update.rows)
        elif isinstance(update, RestructureRelations):
            for relation in update.dropped:
                dropped = self.catalog.drop(relation)
                update.dropped_extents[relation] = dropped.copy()
            self.catalog.create(update.new_schema, update.new_rows)
        else:
            raise UpdateApplicationError(
                f"unknown update type {type(update).__name__}"
            )

    # ------------------------------------------------------------------
    # query interface
    # ------------------------------------------------------------------

    def execute(self, query: SPJQuery) -> Table:
        """Answer an SPJ query over this source's current state.

        All relations in the query must belong to this source.  Missing
        relations or attributes raise :class:`BrokenQueryError` — the
        query was built from outdated schema knowledge.
        """
        self.admit_query()
        self.admitted_schemas(query)
        return execute(
            query,
            {
                ref.alias: self.catalog.table(ref.relation)
                for ref in query.relations
            },
            self.plans,
        )

    def admitted_schemas(self, query: SPJQuery) -> dict[str, RelationSchema]:
        """What makes a query broken (Theorem 1), decided once for every
        backend: ``{alias: current schema}`` of the query's relations,
        or :class:`BrokenQueryError` when one belongs to another source,
        no longer exists, or lacks an attribute the query mentions."""
        schemas: dict[str, RelationSchema] = {}
        for ref in query.relations:
            if ref.source != self.name:
                raise BrokenQueryError(
                    self.name,
                    query.sql(),
                    f"relation {ref.relation!r} belongs to source "
                    f"{ref.source!r}, not {self.name!r}",
                )
            try:
                schemas[ref.alias] = self.catalog.schema(ref.relation)
            except UnknownRelationError as exc:
                raise BrokenQueryError(
                    self.name, query.sql(), str(exc)
                ) from exc

        # Shapes and schemas are immutable, as the plan cache relies on:
        # a shape admitted over these very schemas stays admitted.  A
        # failure is never remembered.
        key = (query.prepared[0], *schemas.values())
        if key in self._admitted:
            return schemas

        # Attribute-level validation: a schema change that only touched
        # attributes the query does not mention must NOT break it
        # (Section 3.1).
        for ref in query.all_attribute_refs():
            if ref.relation is None:
                continue
            schema = schemas.get(ref.relation)
            if schema is not None and ref.name not in schema:
                raise BrokenQueryError(
                    self.name,
                    query.sql(),
                    f"attribute {ref.name!r} missing from relation "
                    f"{schema.name!r}",
                )
        if len(self._admitted) >= ADMITTED_MEMO_CAPACITY:
            self._admitted.clear()
        self._admitted.add(key)
        return schemas

    def admit_query(self) -> None:
        """Fault-injection checkpoint shared by every query entry point.

        A crashed or flaky source fails *before* looking at the query:
        transient unavailability says nothing about the query's
        validity, which is what keeps it distinguishable from the
        broken-query anomaly.
        """
        if self.fault_gate is not None:
            self.fault_gate(self.name)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def commit_version(self) -> int:
        """Monotone commit version: the number of committed updates.

        Bumped by every committed DU/SC (a failed apply raises before
        logging, so the version only moves on success).  Snapshot-cache
        entries are stamped with this counter, and
        :meth:`updates_since` enumerates exactly the commits a stamped
        answer is missing.
        """
        return len(self.log)

    def updates_since(self, version: int) -> list[UpdateMessage]:
        """Committed messages in the gap ``(version, current]``."""
        return self.log[version:]

    def data_deltas_since(
        self, relation: str, version: int
    ) -> list[Delta] | None:
        """The deltas of ``relation``'s data updates committed in the
        gap ``(version, current]``, in commit order — or ``None`` when a
        schema change committed in the gap (the local tier must not roll
        through one: :mod:`repro.sources.replica`).

        Answered from a per-relation index derived from ``log`` up to a
        high-water mark and extended on demand: the log stays the one
        truth, and a gap costs a bisection, not a walk over every
        message committed since ``version``."""
        log = self.log
        for index in range(self._indexed, len(log)):
            message = log[index]
            if message.is_schema_change:
                self._schema_changed_at = index + 1
            elif message.is_data_update:
                versions, deltas = self._data_log.setdefault(
                    message.payload.relation, ([], [])
                )
                versions.append(index + 1)
                deltas.append(message.payload.delta)
        self._indexed = len(log)
        if self._schema_changed_at > version:
            return None
        versions, deltas = self._data_log.get(relation, ([], []))
        return deltas[bisect.bisect_right(versions, version):]

    def schema_of(self, relation: str) -> RelationSchema:
        return self.catalog.schema(relation)

    def has_relation(self, relation: str) -> bool:
        return relation in self.catalog

    def row_count(
        self,
        relation: str,
        distinct: bool = False,
        key_range: KeyRange | None = None,
    ) -> int:
        """Rows of ``relation``: every copy, or the ``distinct`` ones —
        with a ``key_range``, only those whose first attribute lies in
        the closed range (a NULL key lies in none)."""
        table = self.catalog.table(relation)
        if key_range is not None:
            rows = self._in_key_range(relation, key_range)
            return len(rows) if distinct else sum(map(table.count, rows))
        return table.distinct_count() if distinct else len(table)

    def distinct_row(
        self, relation: str, index: int, key_range: KeyRange | None = None
    ) -> Row:
        """The ``index``-th distinct row of ``relation`` (of those in
        ``key_range``, as :meth:`row_count` counts them) in
        first-occurrence order (what a delete intent picks from)."""
        if key_range is not None:
            rows = self._in_key_range(relation, key_range)
            return next(itertools.islice(rows, index, None))
        table = self.catalog.table(relation)
        return next(itertools.islice(table.items(), index, None))[0]

    def pick_distinct_row(
        self,
        relation: str,
        pick: Callable[[int], int],
        key_range: KeyRange | None = None,
    ) -> Row | None:
        """``distinct_row(relation, pick(n), key_range)``, where ``n`` is
        what ``row_count(relation, distinct=True, key_range=key_range)``
        counts — or ``None``, without calling ``pick``, when ``n`` is 0.
        Here the kept candidates count and pick."""
        if key_range is None:
            count = self.catalog.table(relation).distinct_count()
            return self.distinct_row(relation, pick(count)) if count else None
        rows = self._in_key_range(relation, key_range)
        if not rows:
            return None
        return next(itertools.islice(rows, pick(len(rows)), None))

    def _in_key_range(
        self, relation: str, key_range: KeyRange
    ) -> dict[Row, None]:
        """The distinct rows of ``relation`` whose key lies in the closed
        range, in first-occurrence order: one scan on the first call,
        kept from then on."""
        table = self.catalog.table(relation)
        ranges = self._candidates.setdefault(relation, {})
        rows = ranges.get(key_range)
        if rows is None:
            lo, hi = key_range
            rows = ranges[key_range] = {
                row: None
                for row, _count in table.items()
                if (key := row[0]) is not None and lo <= key <= hi
            }
        return rows

    def __repr__(self) -> str:
        return (
            f"DataSource({self.name!r}, relations="
            f"{list(self.catalog.relation_names)})"
        )
