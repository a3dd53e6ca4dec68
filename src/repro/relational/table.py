"""Mutable bag-semantics tables.

A :class:`Table` pairs a :class:`~repro.relational.schema.RelationSchema`
with a counted multiset of rows.  Bag semantics (not set semantics) is the
right substrate for incremental view maintenance: deltas carry
multiplicities, and a join of deltas must multiply counts.

Tables also implement the *physical* side of schema changes — when a
source drops an attribute, every stored row is projected accordingly.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from typing import Iterable, Iterator

from .delta import Delta, Row
from .errors import ArityError, DataError
from .rows import validated_row
from .schema import Attribute, RelationSchema
from .types import Value


def _index(buckets: dict, position: int, rows) -> None:
    """Add ``rows``, distinct and none of them indexed yet, to the
    ``value -> bucket`` map of the column at ``position``."""
    setdefault = buckets.setdefault
    for row in rows:
        value = row[position]
        bucket = setdefault(value, row)
        if bucket is not row:
            if type(bucket) is set:
                bucket.add(row)
            else:
                buckets[value] = {bucket, row}
    buckets.pop(None, None)  # NULL matches nothing: never indexed


class Table:
    """A named bag of typed rows.

    Tables maintain lazy hash indexes per attribute: the first
    :meth:`probe` on an attribute builds a value→rows index, kept up to
    date incrementally by inserts/deletes and discarded by physical
    schema changes.  The executor uses probes to answer IN-list
    maintenance queries without scanning (the "indexed probe" the cost
    model assumes).  Each index stores the attribute's column position
    at build time, so per-row maintenance never re-resolves the
    attribute name against the schema.

    A bucket is the row itself while one distinct row holds the value
    and a ``set`` of rows once a second one arrives; it stays a set,
    built in add order, until its last row goes.  NULL is never
    indexed (it matches nothing), and deleting the last copy of a
    value's last row removes its entry, so an index holds exactly one
    entry per live distinct non-NULL value.

    A table keeps its row total: the first :func:`len` sums the counts
    once and every mutation keeps the sum from then on, so reading it
    costs nothing per call (docs/ALGORITHMS.md §Per-update work).
    """

    __slots__ = ("schema", "_counts", "_indexes", "_size")

    def __init__(
        self,
        schema: RelationSchema,
        rows: Iterable[Row] = (),
    ) -> None:
        self.schema = schema
        #: the bulk load: every row checked as :meth:`insert` checks
        #: it, the bag counted in one C pass
        self._counts: Counter[Row] = Counter(
            map(partial(validated_row, schema), rows)
        )
        #: attribute name -> (column position, value -> bucket), a
        #: bucket being a lone row or, from a second row on, a set
        self._indexes: dict[str, tuple[int, dict]] = {}
        #: the sum of the counts, ``None`` until the first :func:`len`
        self._size: int | None = None

    @classmethod
    def from_counts(
        cls, schema: RelationSchema, counts, size: int | None = None
    ) -> "Table":
        """Trusted bulk constructor: adopt pre-validated ``(row, count)``
        multiplicities without per-row type validation.

        The compiled executor, the snapshot cache's patch path and the
        self-maintenance replicas all produce rows that *came out of*
        validated tables; re-validating every value on the way back in
        is pure per-row overhead.  Counts must be positive, and an
        adopted ``Counter`` belongs to the table from then on.  ``size``
        is the counts' sum when the caller knows it; else the first
        :func:`len` sums them.
        """
        table = cls.__new__(cls)
        table.schema = schema
        table._counts = (
            counts if isinstance(counts, Counter) else Counter(counts)
        )
        table._indexes = {}
        table._size = size
        return table

    # ------------------------------------------------------------------
    # data manipulation
    # ------------------------------------------------------------------

    def insert(self, row: Row, count: int = 1) -> None:
        """Insert ``count`` copies of ``row`` after validation."""
        if count <= 0:
            raise DataError(f"insert count must be positive, got {count}")
        row = validated_row(self.schema, row)
        present = self._counts.get(row, 0)
        self._counts[row] = present + count
        if self._size is not None:
            self._size += count
        if not present:  # a known row is in its buckets already
            for position, buckets in self._indexes.values():
                _index(buckets, position, (row,))

    def delete(self, row: Row, count: int = 1) -> None:
        """Delete ``count`` copies of ``row``; raise if not present."""
        if count <= 0:
            raise DataError(f"delete count must be positive, got {count}")
        row = validated_row(self.schema, row)
        present = self._counts.get(row, 0)
        if present < count:
            raise DataError(
                f"cannot delete {count} x {row!r} from "
                f"{self.schema.name!r}: only {present} present"
            )
        if self._size is not None:
            self._size -= count
        if present == count:
            del self._counts[row]
            for position, buckets in self._indexes.values():
                value = row[position]
                bucket = buckets.get(value)
                if type(bucket) is set:
                    bucket.discard(row)
                    if bucket:
                        continue
                if bucket is not None:
                    del buckets[value]
        else:
            self._counts[row] = present - count

    def update(self, old_row: Row, new_row: Row) -> None:
        """Replace one occurrence of ``old_row`` with ``new_row``."""
        self.delete(old_row)
        self.insert(new_row)

    def apply_delta(self, delta: Delta) -> None:
        """Apply a signed delta: positive counts insert, negative delete."""
        if delta.schema.arity != self.schema.arity:
            raise ArityError(
                f"delta arity {delta.schema.arity} does not match relation "
                f"{self.schema.name!r} arity {self.schema.arity}"
            )
        for row, count in delta.items():
            if count > 0:
                self.insert(row, count)
            else:
                self.delete(row, -count)

    def clear(self) -> None:
        self._counts.clear()
        self._indexes.clear()
        self._size = 0

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Total number of rows counting duplicates."""
        size = self._size
        if size is None:
            size = self._size = sum(self._counts.values())
        return size

    def distinct_count(self) -> int:
        return len(self._counts)

    def count(self, row: Row) -> int:
        return self._counts.get(tuple(row), 0)

    def __contains__(self, row: Row) -> bool:
        return self.count(row) > 0

    def __iter__(self) -> Iterator[Row]:
        for row, count in self._counts.items():
            for _ in range(count):
                yield row

    def items(self) -> Iterator[tuple[Row, int]]:
        return iter(self._counts.items())

    def rows(self) -> list[Row]:
        return list(self)

    def as_delta(self) -> Delta:
        """The whole extent as an insertion delta."""
        delta = Delta(self.schema)
        for row, count in self._counts.items():
            delta.add(row, count)
        return delta

    def probe(self, attribute_name: str, values) -> Iterator[tuple[Row, int]]:
        """Index lookup: rows whose ``attribute_name`` is in ``values``.

        Builds (and thereafter incrementally maintains) a hash index on
        the attribute.  Yields ``(row, count)`` pairs; a NULL value
        matches nothing, as in SQL's ``IN``.
        """
        entry = self._indexes.get(attribute_name)
        if entry is None:
            position = self.schema.index_of(attribute_name)
            buckets: dict = {}
            _index(buckets, position, self._counts)
            entry = (position, buckets)
            self._indexes[attribute_name] = entry
        counts = self._counts
        get = entry[1].get
        for value in values:
            bucket = get(value)
            if bucket is None:
                continue
            if type(bucket) is set:
                for row in bucket:
                    yield row, counts[row]
            else:
                yield bucket, counts[bucket]

    def copy(self, name: str | None = None) -> "Table":
        schema = self.schema if name is None else self.schema.renamed(name)
        # indexes are rebuilt lazily on the copy
        return Table.from_counts(schema, Counter(self._counts), self._size)

    def __eq__(self, other: object) -> bool:
        """Extent equality: same bag of rows (schema names may differ)."""
        if not isinstance(other, Table):
            return NotImplemented
        # Invariant: no zero count is stored, so dict == is Counter ==.
        return dict.__eq__(self._counts, other._counts)

    def __hash__(self) -> int:  # pragma: no cover
        raise TypeError("Table is mutable and unhashable")

    def __repr__(self) -> str:
        return (
            f"Table({self.schema.name!r}, arity={self.schema.arity}, "
            f"rows={len(self)})"
        )

    # ------------------------------------------------------------------
    # physical schema evolution
    # ------------------------------------------------------------------

    def renamed(self, new_name: str) -> "Table":
        return self.copy(new_name)

    def rename_attribute(self, old: str, new: str) -> None:
        """In-place attribute rename; rows are untouched."""
        self.schema = self.schema.rename_attribute(old, new)
        if old in self._indexes:
            self._indexes[new] = self._indexes.pop(old)

    def drop_attribute(self, attribute_name: str) -> None:
        """Drop the attribute and project every stored row."""
        index = self.schema.index_of(attribute_name)
        self.schema = self.schema.drop_attribute(attribute_name)
        projected: Counter[Row] = Counter()
        for row, count in self._counts.items():
            projected[row[:index] + row[index + 1 :]] += count
        self._counts = projected
        self._indexes.clear()

    def add_attribute(
        self, attribute: Attribute, default: Value = None
    ) -> None:
        """Append the attribute, filling existing rows with ``default``."""
        default = attribute.type.validate(default)
        self.schema = self.schema.add_attribute(attribute)
        extended: Counter[Row] = Counter()
        for row, count in self._counts.items():
            extended[row + (default,)] += count
        self._counts = extended
        self._indexes.clear()
