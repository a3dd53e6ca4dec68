"""A data source backed by a real SQL engine (stdlib ``sqlite3``).

The paper's sources were Oracle instances reached over JDBC; our default
:class:`~repro.sources.source.DataSource` keeps relations in the
in-memory engine.  This module provides a drop-in alternative whose
storage *and query answering* are delegated to SQLite — demonstrating
that the view manager, Dyno, and all maintenance algorithms are
independent of the source implementation (they only see
:class:`UpdateMessage` streams and SPJ query answers).

Maintenance queries are rendered to SQL (``SPJQuery.sql()``) and
executed by SQLite; schema changes become ``ALTER TABLE`` statements.
Broken queries surface exactly like on the in-memory source: the schema
dictionary is checked before dispatching SQL, so a query built from
outdated metadata raises
:class:`~repro.sources.errors.BrokenQueryError`.
"""

from __future__ import annotations

import sqlite3
from typing import Iterable, Iterator

from ..relational.delta import Row
from ..relational.errors import UnknownRelationError
from ..relational.executor import result_schema
from ..relational.query import SPJQuery
from ..relational.schema import RelationSchema
from ..relational.table import Table
from ..relational.types import AttributeType
from .errors import UpdateApplicationError
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
from .source import DataSource

_SQL_TYPE = {
    AttributeType.INT: "INTEGER",
    AttributeType.FLOAT: "REAL",
    AttributeType.STRING: "TEXT",
    AttributeType.BOOL: "INTEGER",  # SQLite stores booleans as 0/1
}


def _from_sqlite(value, attr_type: AttributeType):
    if value is None:
        return None
    if attr_type is AttributeType.BOOL:
        return bool(value)
    if attr_type is AttributeType.FLOAT:
        return float(value)
    return value


def _to_sqlite(value):
    if isinstance(value, bool):
        return int(value)
    return value


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
        table = Table(schema)
        for raw in cursor:
            table.insert(
                tuple(
                    _from_sqlite(value, attribute.type)
                    for value, attribute in zip(raw, schema.attributes)
                )
            )
        return table

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
        self._insert_rows(schema.name, rows)

    def _insert_rows(self, relation: str, rows: Iterable[Row]) -> None:
        schema = self._schemas[relation]
        placeholders = ", ".join("?" for _ in schema.attributes)
        self._db.executemany(
            f"INSERT INTO {relation} VALUES ({placeholders})",
            [tuple(_to_sqlite(value) for value in row) for row in rows],
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
            inserts = [
                row
                for row, count in update.delta.items()
                for _ in range(max(count, 0))
            ]
            self._insert_rows(update.relation, inserts)
            predicate = " AND ".join(
                f"{attribute.name} IS ?" for attribute in schema.attributes
            )
            for row, count in update.delta.items():
                for _ in range(max(-count, 0)):
                    cursor = self._db.execute(
                        f"DELETE FROM {update.relation} WHERE rowid IN ("
                        f"SELECT rowid FROM {update.relation} "
                        f"WHERE {predicate} LIMIT 1)",
                        tuple(_to_sqlite(value) for value in row),
                    )
                    if cursor.rowcount != 1:
                        raise UpdateApplicationError(
                            f"cannot delete absent row {row!r} "
                            f"from {update.relation!r}"
                        )
        elif isinstance(update, RenameRelation):
            self._require(update.old)
            self._db.execute(
                f"ALTER TABLE {update.old} RENAME TO {update.new}"
            )
            self._schemas[update.new] = self._schemas.pop(
                update.old
            ).renamed(update.new)
        elif isinstance(update, RenameAttribute):
            schema = self._require(update.relation)
            self._db.execute(
                f"ALTER TABLE {update.relation} "
                f"RENAME COLUMN {update.old} TO {update.new}"
            )
            self._schemas[update.relation] = schema.rename_attribute(
                update.old, update.new
            )
        elif isinstance(update, DropAttribute):
            schema = self._require(update.relation)
            self._db.execute(
                f"ALTER TABLE {update.relation} "
                f"DROP COLUMN {update.attribute}"
            )
            self._schemas[update.relation] = schema.drop_attribute(
                update.attribute
            )
        elif isinstance(update, AddAttribute):
            schema = self._require(update.relation)
            sql_type = _SQL_TYPE[update.attribute.type]
            default = _to_sqlite(update.default)
            if default is None:
                clause = ""
            elif isinstance(default, str):
                escaped = default.replace("'", "''")
                clause = f" DEFAULT '{escaped}'"
            else:
                clause = f" DEFAULT {default}"
            self._db.execute(
                f"ALTER TABLE {update.relation} "
                f"ADD COLUMN {update.attribute.name} {sql_type}{clause}"
            )
            self._schemas[update.relation] = schema.add_attribute(
                update.attribute
            )
        elif isinstance(update, DropRelation):
            self._require(update.relation)
            update.dropped_extent = self.catalog.table(update.relation)
            self._db.execute(f"DROP TABLE {update.relation}")
            del self._schemas[update.relation]
        elif isinstance(update, CreateRelation):
            self.create_relation(update.schema, update.rows)
        elif isinstance(update, RestructureRelations):
            for relation in update.dropped:
                self._require(relation)
                update.dropped_extents[relation] = self.catalog.table(
                    relation
                )
                self._db.execute(f"DROP TABLE {relation}")
                del self._schemas[relation]
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

    # ------------------------------------------------------------------
    # query answering (real SQL execution)
    # ------------------------------------------------------------------

    def execute(self, query: SPJQuery) -> Table:
        self.admit_query()
        # Metadata validation first: outdated schema knowledge must
        # surface as a broken query, not as a SQL syntax error.
        schema = result_schema(
            self.admitted_schemas(query), query.projection
        )
        table = Table(schema)
        for raw in self._db.execute(query.sql()):
            table.insert(
                tuple(
                    _from_sqlite(value, attribute.type)
                    for value, attribute in zip(raw, schema.attributes)
                )
            )
        return table

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def schema_of(self, relation: str) -> RelationSchema:
        return self.catalog.schema(relation)

    def has_relation(self, relation: str) -> bool:
        return relation in self._schemas

    def total_rows(self) -> int:
        total = 0
        for relation in self._schemas:
            cursor = self._db.execute(f"SELECT COUNT(*) FROM {relation}")
            total += cursor.fetchone()[0]
        return total
