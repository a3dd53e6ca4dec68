"""Source update messages: data updates and schema changes.

A *source update* is the payload a data source commits locally; an
:class:`UpdateMessage` is the committed envelope a wrapper ships to the
view manager (source name, sequence number, commit timestamp, payload).

Schema-change payloads know which metadata they modify, which is exactly
what dependency detection needs: Definition 3 draws a concurrent
dependency edge only when a schema change "modifies any metadata, such as
attribute or relation, that is included in the view query".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..relational.delta import Delta, Row
from ..relational.schema import Attribute, RelationSchema
from ..relational.table import Table
from ..relational.types import Value


class SourceUpdate:
    """Abstract payload of one committed source transaction."""

    #: relation names this update touches at its source (for semantic
    #: dependency bucketing).
    def touched_relations(self) -> frozenset[str]:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError


# ----------------------------------------------------------------------
# data updates
# ----------------------------------------------------------------------


@dataclass
class DataUpdate(SourceUpdate):
    """A bag delta committed against one relation (DU)."""

    relation: str
    delta: Delta

    @classmethod
    def insert(
        cls, schema: RelationSchema, rows: Iterable[Row]
    ) -> "DataUpdate":
        return cls(schema.name, Delta.insertion(schema, rows))

    @classmethod
    def delete(
        cls, schema: RelationSchema, rows: Iterable[Row]
    ) -> "DataUpdate":
        return cls(schema.name, Delta.deletion(schema, rows))

    def touched_relations(self) -> frozenset[str]:
        return frozenset({self.relation})

    def describe(self) -> str:
        inserted = sum(c for _, c in self.delta.items() if c > 0)
        deleted = -sum(c for _, c in self.delta.items() if c < 0)
        return f"DU({self.relation}: +{inserted}/-{deleted})"


# ----------------------------------------------------------------------
# schema changes
# ----------------------------------------------------------------------


class SchemaChange(SourceUpdate):
    """Abstract schema-change payload (SC).  Whether one invalidates a
    query (Definition 3) is :meth:`repro.core.dependencies.Footprint
    .conflicted_by` over the query's footprint."""


@dataclass
class RenameRelation(SchemaChange):
    old: str
    new: str

    def touched_relations(self) -> frozenset[str]:
        return frozenset({self.old, self.new})

    def describe(self) -> str:
        return f"SC(rename relation {self.old} -> {self.new})"


@dataclass
class RenameAttribute(SchemaChange):
    relation: str
    old: str
    new: str

    def touched_relations(self) -> frozenset[str]:
        return frozenset({self.relation})

    def describe(self) -> str:
        return f"SC(rename {self.relation}.{self.old} -> {self.new})"


@dataclass
class DropAttribute(SchemaChange):
    relation: str
    attribute: str

    def touched_relations(self) -> frozenset[str]:
        return frozenset({self.relation})

    def describe(self) -> str:
        return f"SC(drop {self.relation}.{self.attribute})"


@dataclass
class AddAttribute(SchemaChange):
    relation: str
    attribute: Attribute
    default: Value = None

    def touched_relations(self) -> frozenset[str]:
        return frozenset({self.relation})

    def describe(self) -> str:
        return f"SC(add {self.relation}.{self.attribute.name})"


@dataclass
class DropRelation(SchemaChange):
    """Drop a relation.

    ``dropped_extent`` is filled in by the source at commit time: the
    paper assumes "intelligent" wrappers that extract not only raw data
    but also metadata, and view adaptation needs the final extent of the
    dropped relation to compute the replacement delta (Section 5,
    Equation 6).
    """

    relation: str
    dropped_extent: Table | None = field(default=None, compare=False)

    def touched_relations(self) -> frozenset[str]:
        return frozenset({self.relation})

    def describe(self) -> str:
        return f"SC(drop relation {self.relation})"


@dataclass
class CreateRelation(SchemaChange):
    schema: RelationSchema
    rows: tuple[Row, ...] = ()

    def touched_relations(self) -> frozenset[str]:
        return frozenset({self.schema.name})

    def describe(self) -> str:
        return f"SC(create relation {self.schema.name})"


@dataclass
class RestructureRelations(SchemaChange):
    """Atomically replace a set of relations by one new relation.

    This models the paper's motivating change (Figure 2): re-tuning the
    XML-to-relational mapping collapses ``Store`` and ``Item`` into a
    single ``StoreItems`` table in one committed restructuring.

    ``new_rows`` is the extent of the new relation.  The final extents of
    the dropped relations are captured at commit time like in
    :class:`DropRelation`.
    """

    dropped: tuple[str, ...]
    new_schema: RelationSchema
    new_rows: tuple[Row, ...] = ()
    dropped_extents: dict[str, Table] = field(
        default_factory=dict, compare=False
    )

    def touched_relations(self) -> frozenset[str]:
        return frozenset(self.dropped) | {self.new_schema.name}

    def describe(self) -> str:
        return (
            f"SC(restructure {', '.join(self.dropped)} "
            f"-> {self.new_schema.name})"
        )


# ----------------------------------------------------------------------
# the committed envelope
# ----------------------------------------------------------------------


@dataclass
class UpdateMessage:
    """A committed source update as seen by the view manager's UMQ."""

    source: str
    seqno: int
    committed_at: float
    payload: SourceUpdate

    @property
    def is_schema_change(self) -> bool:
        return isinstance(self.payload, SchemaChange)

    @property
    def is_data_update(self) -> bool:
        return isinstance(self.payload, DataUpdate)

    def touched_relations(self) -> frozenset[str]:
        return self.payload.touched_relations()

    def describe(self) -> str:
        return (
            f"[{self.source}#{self.seqno}@{self.committed_at:.3f}] "
            f"{self.payload.describe()}"
        )

    def __repr__(self) -> str:
        return f"UpdateMessage({self.describe()})"
