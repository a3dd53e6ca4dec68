"""A data source backed by a real SQL engine (stdlib ``sqlite3``).

The paper's sources were Oracle instances reached over JDBC; our default
:class:`~repro.sources.source.DataSource` keeps relations in the
in-memory engine.  This module provides a drop-in alternative whose
storage *and query answering* are delegated to SQLite — demonstrating
that the view manager, Dyno, and all maintenance algorithms are
independent of the source implementation (they only see
:class:`UpdateMessage` streams and SPJ query answers).

Maintenance queries are *prepared*: one ``?``-placeholder text per
query shape with the IN-lists bound at execute, answered from indexes
built lazily per probed column (docs/ALGORITHMS.md, *View maintenance*);
schema changes become ``ALTER TABLE`` statements.
Broken queries surface exactly like on the in-memory source: the schema
dictionary is checked before dispatching SQL, so a query built from
outdated metadata raises
:class:`~repro.sources.errors.BrokenQueryError`.
"""

from __future__ import annotations

import itertools
import sqlite3
from collections import Counter
from typing import Callable, Iterable, Iterator

from ..relational.delta import Row
from ..relational.errors import UnknownRelationError
from ..relational.plan import result_schema
from ..relational.predicate import Conjunction, InParameter, sql_literal
from ..relational.query import SPJQuery
from ..relational.rows import validated_row
from ..relational.schema import RelationSchema
from ..relational.table import Table
from ..relational.types import AttributeType
from .errors import ProbeArityError, UpdateApplicationError
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
)
from .source import DataSource, KeyRange

_SQL_TYPE = {
    AttributeType.INT: "INTEGER",
    AttributeType.FLOAT: "REAL",
    AttributeType.STRING: "TEXT",
    AttributeType.BOOL: "INTEGER",  # SQLite stores booleans as 0/1
}

#: what turns a stored value back into its attribute's type; INT and
#: STRING come back as they went in (and ``sqlite3`` binds a ``bool`` as
#: 0/1 by itself, so nothing is converted on the way in)
_FROM_SQLITE = {AttributeType.BOOL: bool, AttributeType.FLOAT: float}

def _converters(schema: RelationSchema) -> tuple | None:
    """One converter per column, or ``None`` when no column needs one."""
    converters = tuple(
        _FROM_SQLITE.get(attribute.type) for attribute in schema.attributes
    )
    return converters if any(converters) else None


def _typed_rows(cursor, converters: tuple | None) -> list[Row]:
    rows = cursor.fetchall()
    if converters is None:
        return rows
    return [
        tuple(
            value if convert is None or value is None else convert(value)
            for value, convert in zip(row, converters)
        )
        for row in rows
    ]


def _adopt(cursor, schema: RelationSchema, converters: tuple | None) -> Table:
    """The cursor's rows as a table over ``schema``: typed by the deltas
    and loads that wrote them, so adopted like the in-memory executor's
    answer rows, not validated one by one."""
    return Table.from_counts(schema, Counter(_typed_rows(cursor, converters)))


def _validated(schema: RelationSchema, rows: Iterable[Row]) -> Iterator[Row]:
    """A load's rows as ``Table.insert`` would store them — its checks,
    its errors — so what ``_adopt`` hands out later was typed on its way
    in."""
    return (validated_row(schema, row) for row in rows)


def _bucket(arity: int) -> int:
    """IN-list arity as a statement text carries it: the next power of
    two, so a sweep of probes shares a handful of texts."""
    return 1 << (arity - 1).bit_length() if arity else 0


class SqliteCatalog:
    """Catalog facade over a SQLite database.

    Presents the same lookups :class:`~repro.relational.catalog.Catalog`
    does — the view manager's oracle and snapshot paths work unchanged —
    materializing tables from SQLite on demand.
    """

    def __init__(self, source: "SqliteDataSource") -> None:
        self._source = source

    @property
    def relation_names(self) -> tuple[str, ...]:
        return tuple(self._source._schemas)

    def __contains__(self, relation_name: str) -> bool:
        return relation_name in self._source._schemas

    def __len__(self) -> int:
        return len(self._source._schemas)

    def __iter__(self) -> Iterator[Table]:
        for name in self.relation_names:
            yield self.table(name)

    def schema(self, relation_name: str) -> RelationSchema:
        schema = self._source._schemas.get(relation_name)
        if schema is None:
            raise UnknownRelationError(relation_name, self._source.name)
        return schema

    def table(self, relation_name: str) -> Table:
        """Materialize the relation's current extent from SQLite."""
        schema = self.schema(relation_name)
        cursor = self._source._db.execute(f"SELECT * FROM {relation_name}")
        return _adopt(cursor, schema, _converters(schema))

    def snapshot(self):
        from ..relational.catalog import Catalog

        duplicate = Catalog(self._source.name)
        for name in self.relation_names:
            duplicate.add_table(self.table(name))
        return duplicate


class SqliteDataSource(DataSource):
    """A :class:`DataSource` whose relations live in SQLite."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self._db = sqlite3.connect(":memory:")
        self._schemas: dict[str, RelationSchema] = {}
        #: (shape, IN-list arity buckets, *admitted schemas) ->
        #: (statement text, result schema, converters); see _prepare
        self._statements: dict[tuple, tuple] = {}
        self.catalog = SqliteCatalog(self)  # type: ignore[assignment]

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------

    def create_relation(
        self, schema: RelationSchema, rows: Iterable[Row] = ()
    ) -> None:  # type: ignore[override]
        columns = ", ".join(
            f"{attribute.name} {_SQL_TYPE[attribute.type]}"
            for attribute in schema.attributes
        )
        self._db.execute(f"CREATE TABLE {schema.name} ({columns})")
        self._schemas[schema.name] = schema
        self._insert_rows(schema.name, _validated(schema, rows))

    def _insert_rows(self, relation: str, rows: Iterable[Row]) -> None:
        schema = self._schemas[relation]
        placeholders = ", ".join("?" for _ in schema.attributes)
        self._db.executemany(
            f"INSERT INTO {relation} VALUES ({placeholders})", rows
        )

    # ------------------------------------------------------------------
    # update application (SQL DDL/DML)
    # ------------------------------------------------------------------

    def _dispatch(self, update: SourceUpdate) -> None:
        try:
            self._dispatch_sql(update)
        except sqlite3.Error as exc:
            raise UpdateApplicationError(
                f"sqlite source {self.name!r} failed to apply "
                f"{update.describe()}: {exc}"
            ) from exc

    def _dispatch_sql(self, update: SourceUpdate) -> None:
        if isinstance(update, DataUpdate):
            schema = self._require(update.relation)
            items = update.delta.validated_items()
            self._insert_rows(
                update.relation,
                [row for row, count in items for _ in range(count)],
            )
            predicate = " AND ".join(
                f"{attribute.name} IS ?" for attribute in schema.attributes
            )
            for row, count in items:
                if count > 0:
                    continue
                cursor = self._db.execute(
                    f"DELETE FROM {update.relation} WHERE rowid IN ("
                    f"SELECT rowid FROM {update.relation} "
                    f"WHERE {predicate} LIMIT ?)",
                    (*row, -count),
                )
                if cursor.rowcount != -count:
                    raise UpdateApplicationError(
                        f"cannot delete {-count} x {row!r} from "
                        f"{update.relation!r}: only {cursor.rowcount} "
                        f"present"
                    )
        elif isinstance(update, RenameRelation):
            schema = self._alter(update.old, f"RENAME TO {update.new}")
            del self._schemas[update.old]
            self._schemas[update.new] = schema.renamed(update.new)
        elif isinstance(update, RenameAttribute):
            schema = self._alter(
                update.relation, f"RENAME COLUMN {update.old} TO {update.new}"
            )
            self._schemas[update.relation] = schema.rename_attribute(
                update.old, update.new
            )
        elif isinstance(update, DropAttribute):
            schema = self._alter(
                update.relation, f"DROP COLUMN {update.attribute}"
            )
            self._schemas[update.relation] = schema.drop_attribute(
                update.attribute
            )
        elif isinstance(update, AddAttribute):
            attribute = update.attribute
            schema = self._alter(
                update.relation,
                f"ADD COLUMN {attribute.name} {_SQL_TYPE[attribute.type]} "
                f"DEFAULT {sql_literal(update.default)}",
            )
            self._schemas[update.relation] = schema.add_attribute(attribute)
        elif isinstance(update, DropRelation):
            update.dropped_extent = self._drop(update.relation)
        elif isinstance(update, CreateRelation):
            self.create_relation(update.schema, update.rows)
        elif isinstance(update, RestructureRelations):
            for relation in update.dropped:
                update.dropped_extents[relation] = self._drop(relation)
            self.create_relation(update.new_schema, update.new_rows)
        else:
            raise UpdateApplicationError(
                f"unknown update type {type(update).__name__}"
            )

    def _require(self, relation: str) -> RelationSchema:
        schema = self._schemas.get(relation)
        if schema is None:
            raise UpdateApplicationError(
                f"unknown relation {relation!r} at sqlite source "
                f"{self.name!r}"
            )
        return schema

    def _alter(self, relation: str, clause: str) -> RelationSchema:
        """``ALTER TABLE relation clause``; returns the schema it had.

        The relation's lazily built indexes go first (SQLite refuses
        ``DROP COLUMN`` on an indexed column) and every prepared record
        is forgotten; both come back with the next probe.
        """
        schema = self._require(relation)
        for (index,) in self._db.execute(
            "SELECT name FROM sqlite_master "
            "WHERE type = 'index' AND tbl_name = ?",
            (relation,),
        ).fetchall():
            self._db.execute(f'DROP INDEX "{index}"')
        self._statements.clear()
        self._db.execute(f"ALTER TABLE {relation} {clause}")
        return schema

    def _drop(self, relation: str) -> Table:
        self._require(relation)
        extent = self.catalog.table(relation)
        self._db.execute(f"DROP TABLE {relation}")  # its indexes with it
        del self._schemas[relation]
        self._statements.clear()
        return extent

    # ------------------------------------------------------------------
    # query answering (prepared SQL execution)
    # ------------------------------------------------------------------

    def execute(self, query: SPJQuery) -> Table:
        self.admit_query()
        # Metadata validation first: outdated schema knowledge must
        # surface as a broken query, not as a SQL syntax error.
        schemas = self.admitted_schemas(query)
        shape, parameters = query.prepared
        buckets = self._buckets([len(values) for values in parameters])
        key = (shape, buckets, *schemas.values())
        statement = self._statements.get(key)
        if statement is None:
            statement = self._prepare(shape, buckets, schemas)
            self._statements[key] = statement
        bindings: list = []
        for values, bucket in zip(parameters, buckets):
            bindings.extend(values)
            if len(values) < bucket:  # K IN (5, 5) is K IN (5)
                bindings.extend([next(iter(values))] * (bucket - len(values)))
        sql, schema, converters = statement
        return _adopt(self._db.execute(sql, bindings), schema, converters)

    def _buckets(self, arities: list[int]) -> tuple[int, ...]:
        """Placeholders per IN-list: each arity padded to its bucket,
        unpadded where the padding alone would cross the engine's
        variable limit — only the values a query binds can be refused."""
        buckets = tuple([_bucket(arity) for arity in arities])
        limit = self._db.getlimit(sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER)
        if sum(buckets) <= limit:
            return buckets
        if sum(arities) > limit:
            raise ProbeArityError(self.name, sum(arities), limit)
        return tuple(arities)

    def _prepare(
        self,
        shape: SPJQuery,
        buckets: tuple[int, ...],
        schemas: dict[str, RelationSchema],
    ) -> tuple[str, RelationSchema, tuple | None]:
        """``(sql, result schema, converters)``: ``shape`` rendered once
        for these IN-list arities, after indexing the columns it probes
        (the lazy rule of ``Table.probe``)."""
        numbers = itertools.count(1)
        marks = [
            ", ".join(f"?{next(numbers)}" for _ in range(bucket))
            for bucket in buckets
        ]
        selection = shape.selection
        conjuncts = (
            selection.children
            if isinstance(selection, Conjunction)
            else (selection,)
        )
        for term in conjuncts:
            if isinstance(term, InParameter) and term.attr.relation:
                relation = shape.relation_ref(term.attr.relation).relation
                self._db.execute(
                    f'CREATE INDEX IF NOT EXISTS "{relation}.{term.attr.name}"'
                    f" ON {relation} ({term.attr.name})"
                )
        schema = result_schema(schemas, shape.projection)
        return shape.sql(marks), schema, _converters(schema)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def _keyed(
        self, relation: str, key_range: KeyRange | None
    ) -> tuple[str, tuple]:
        """``relation`` as a FROM clause restricted to ``key_range``,
        plus the values it binds."""
        if key_range is None:
            return relation, ()
        key = self.catalog.schema(relation).attribute_names[0]
        return f"{relation} WHERE {key} BETWEEN ? AND ?", tuple(key_range)

    def row_count(
        self,
        relation: str,
        distinct: bool = False,
        key_range: KeyRange | None = None,
    ) -> int:
        rows, bound = self._keyed(relation, key_range)
        if distinct:
            rows = f"(SELECT DISTINCT * FROM {rows})"
        return self._db.execute(
            f"SELECT COUNT(*) FROM {rows}", bound
        ).fetchone()[0]

    def pick_distinct_row(
        self,
        relation: str,
        pick: Callable[[int], int],
        key_range: KeyRange | None = None,
    ) -> Row | None:
        count = self.row_count(relation, distinct=True, key_range=key_range)
        if not count:
            return None
        return self.distinct_row(relation, pick(count), key_range)

    def distinct_row(
        self, relation: str, index: int, key_range: KeyRange | None = None
    ) -> Row:
        schema = self.catalog.schema(relation)
        columns = ", ".join(schema.attribute_names)
        rows, bound = self._keyed(relation, key_range)
        cursor = self._db.execute(
            f"SELECT {columns} FROM {rows} GROUP BY {columns} "
            f"ORDER BY MIN(rowid) LIMIT 1 OFFSET ?",
            (*bound, index),
        )
        return _typed_rows(cursor, _converters(schema))[0]
