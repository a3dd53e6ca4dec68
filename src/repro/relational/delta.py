"""Signed multisets of tuples (deltas).

Incremental view maintenance works on *deltas*: bags of tuples with signed
multiplicities, where a positive count means insertions and a negative
count means deletions.  Deltas are the lingua franca of this library —
source data updates, maintenance query answers after compensation, and
view refreshes are all deltas.

The representation follows the counting algebra of Griffin & Libkin
("Incremental Maintenance of Views with Duplicates", SIGMOD 1995), which
the paper's maintenance substrate [1, 20] builds on.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator

from .errors import ArityError
from .rows import validated_row
from .schema import RelationSchema

Row = tuple


class Delta:
    """A signed bag of rows over one schema.

    Counts may be any nonzero integer; entries whose count reaches zero are
    removed eagerly so that two deltas are equal iff they have the same
    net effect.

    A delta also remembers :meth:`validated_items` — its rows typed for
    its own schema — beside the fields: mutation drops the memo,
    :meth:`copy` shares it, and equality, ``repr`` and pickling never
    see it.
    """

    __slots__ = ("schema", "_counts", "_validated")

    def __init__(
        self,
        schema: RelationSchema,
        counts: dict[Row, int] | None = None,
    ) -> None:
        self.schema = schema
        self._counts: Counter[Row] = Counter()
        self._validated: tuple[tuple[Row, int], ...] | None = None
        if counts:
            for row, count in counts.items():
                self.add(row, count)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def insertion(cls, schema: RelationSchema, rows: Iterable[Row]) -> "Delta":
        delta = cls(schema)
        for row in rows:
            delta.add(row, 1)
        return delta

    @classmethod
    def deletion(cls, schema: RelationSchema, rows: Iterable[Row]) -> "Delta":
        delta = cls(schema)
        for row in rows:
            delta.add(row, -1)
        return delta

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def add(self, row: Row, count: int = 1) -> None:
        """Accumulate ``count`` occurrences of ``row`` (negative = delete)."""
        if len(row) != self.schema.arity:
            raise ArityError(
                f"row of width {len(row)} does not match schema "
                f"{self.schema.name!r} of arity {self.schema.arity}"
            )
        if count == 0:
            return
        self._validated = None
        row = tuple(row)
        new_count = self._counts[row] + count
        if new_count == 0:
            del self._counts[row]
        else:
            self._counts[row] = new_count

    def merge(self, other: "Delta") -> None:
        """Accumulate another delta of the same arity into this one."""
        if other.schema.arity != self.schema.arity:
            raise ArityError(
                f"cannot merge delta of arity {other.schema.arity} into "
                f"delta of arity {self.schema.arity}"
            )
        for row, count in other.items():
            self.add(row, count)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def items(self) -> Iterator[tuple[Row, int]]:
        return iter(self._counts.items())

    def validated_items(self) -> tuple[tuple[Row, int], ...]:
        """The ``(row, count)`` items with every row validated against
        this delta's own schema and coerced — what
        :meth:`Table.insert <repro.relational.table.Table.insert>` would
        store — in :meth:`items` order.

        Remembered until the next mutation, so a table built from them
        (:meth:`Table.from_counts <repro.relational.table.Table
        .from_counts>`) costs no second validation pass however many
        probe answers the delta leaks into.  A row that fails raises
        :class:`~repro.relational.errors.TypeMismatchError` and nothing
        is remembered: the next call raises again.  Rows that coerce to
        one row (integers beyond 2**53 in a FLOAT column) are summed.
        """
        items = self._validated
        if items is None:
            schema = self.schema
            net: dict[Row, int] = {}
            for row, count in self._counts.items():
                row = validated_row(schema, row)
                net[row] = net.get(row, 0) + count
            items = self._validated = tuple(
                item for item in net.items() if item[1]
            )
        return items

    def count(self, row: Row) -> int:
        return self._counts.get(tuple(row), 0)

    def rows(self) -> Iterator[Row]:
        """Each row repeated ``abs(count)`` times, sign ignored."""
        for row, count in self._counts.items():
            for _ in range(abs(count)):
                yield row

    def is_empty(self) -> bool:
        return not self._counts

    def __len__(self) -> int:
        """Number of distinct rows with a nonzero net count."""
        return len(self._counts)

    def net_size(self) -> int:
        """Sum of absolute multiplicities (total tuple traffic)."""
        return sum(abs(count) for count in self._counts.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Delta):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self) -> int:  # pragma: no cover - deltas are not hashable
        raise TypeError("Delta is mutable and unhashable")

    def __getstate__(self) -> tuple:
        return self.schema, self._counts

    def __setstate__(self, state: tuple) -> None:
        self.schema, self._counts = state
        self._validated = None

    def __repr__(self) -> str:
        preview = dict(list(self._counts.items())[:4])
        suffix = "..." if len(self._counts) > 4 else ""
        return f"Delta({self.schema.name!r}, {preview}{suffix})"

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------

    def negated(self) -> "Delta":
        """The delta with all counts negated (undo)."""
        flipped = Delta(self.schema)
        for row, count in self._counts.items():
            flipped.add(row, -count)
        return flipped

    def copy(self) -> "Delta":
        duplicate = Delta(self.schema)
        duplicate._counts = Counter(self._counts)
        duplicate._validated = self._validated
        return duplicate

