"""Per-source catalogs of tables.

A :class:`Catalog` is the metadata+data dictionary of one data source:
named tables, created/dropped/renamed as a unit.  All lookups raise
:class:`~repro.relational.errors.UnknownRelationError` when the relation
is absent — the signal that a maintenance query built from outdated
schema knowledge has broken.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import DuplicateRelationError, UnknownRelationError
from .schema import RelationSchema
from .table import Table


class Catalog:
    """A mutable dictionary of relations owned by one source."""

    def __init__(self, source_name: str = "") -> None:
        self.source_name = source_name
        self._tables: dict[str, Table] = {}

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------

    def create(self, schema: RelationSchema, rows: Iterable = ()) -> Table:
        if schema.name in self._tables:
            raise DuplicateRelationError(
                f"relation {schema.name!r} already exists"
                + (f" at source {self.source_name!r}" if self.source_name else "")
            )
        table = Table(schema, rows)
        self._tables[schema.name] = table
        return table

    def add_table(self, table: Table) -> None:
        if table.schema.name in self._tables:
            raise DuplicateRelationError(
                f"relation {table.schema.name!r} already exists"
            )
        self._tables[table.schema.name] = table

    def drop(self, relation_name: str) -> Table:
        """Drop and return the table (callers may keep it as a snapshot)."""
        table = self.table(relation_name)
        del self._tables[relation_name]
        return table

    def rename(self, old: str, new: str) -> None:
        table = self.table(old)
        if new in self._tables:
            raise DuplicateRelationError(f"relation {new!r} already exists")
        del self._tables[old]
        table.schema = table.schema.renamed(new)
        self._tables[new] = table

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def table(self, relation_name: str) -> Table:
        try:
            return self._tables[relation_name]
        except KeyError:
            raise UnknownRelationError(
                relation_name, self.source_name or None
            ) from None

    def schema(self, relation_name: str) -> RelationSchema:
        return self.table(relation_name).schema

    def __contains__(self, relation_name: str) -> bool:
        return relation_name in self._tables

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)

    @property
    def relation_names(self) -> tuple[str, ...]:
        return tuple(self._tables)

    def snapshot(self) -> "Catalog":
        """A deep copy of all tables (used by the consistency oracle)."""
        duplicate = Catalog(self.source_name)
        for name, table in self._tables.items():
            duplicate._tables[name] = table.copy()
        return duplicate
