"""Workload generation: timed streams of source update intents.

Experiments schedule *intents*, not concrete updates: because sources are
autonomous, the concrete rows/metadata of an update can only be decided
against the source's live schema at commit time (e.g. "rename a random
relation" must pick from the relations that still exist *then*).  An
:class:`UpdateIntent` materializes into a concrete
:class:`~repro.sources.messages.SourceUpdate` at its commit instant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from ..relational.schema import RelationSchema
from ..relational.types import AttributeType, Value
from .messages import (
    DataUpdate,
    DropAttribute,
    RenameRelation,
    SourceUpdate,
)
from .source import DataSource, KeyRange


class UpdateIntent:
    """Deferred description of a source update."""

    def materialize(self, source: DataSource) -> SourceUpdate | None:
        """Produce a concrete update against the live source state.

        Returns ``None`` when the intent is impossible (e.g. deleting
        from an empty relation); the simulation skips such commits.
        """
        raise NotImplementedError


# ----------------------------------------------------------------------
# value generation
# ----------------------------------------------------------------------

_WORDS = (
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
    "hotel", "india", "juliet", "kilo", "lima", "mike", "november",
)


def random_value(rng: random.Random, attr_type: AttributeType) -> Value:
    if attr_type is AttributeType.INT:
        return rng.randrange(1_000_000)
    if attr_type is AttributeType.FLOAT:
        return round(rng.uniform(0, 1000), 2)
    if attr_type is AttributeType.BOOL:
        return rng.random() < 0.5
    return f"{rng.choice(_WORDS)}-{rng.randrange(100000)}"


def random_row(rng: random.Random, schema: RelationSchema) -> tuple:
    return tuple(
        random_value(rng, attribute.type) for attribute in schema.attributes
    )


# ----------------------------------------------------------------------
# concrete intents
# ----------------------------------------------------------------------


@dataclass
class InsertRandomRow(UpdateIntent):
    """Insert a random row into a relation (random one if unspecified).

    ``key_factory`` optionally overrides the first attribute's value so
    testbeds can control join selectivity (e.g. reuse an existing key to
    force a view match).
    """

    rng: random.Random
    relation: str | None = None
    key_factory: Callable[[random.Random], Value] | None = None

    def materialize(self, source: DataSource) -> SourceUpdate | None:
        names = source.catalog.relation_names
        if not names:
            return None
        relation = self.relation
        if relation is None or relation not in source.catalog:
            relation = self.rng.choice(list(names))
        schema = source.schema_of(relation)
        row = list(random_row(self.rng, schema))
        if self.key_factory is not None and row:
            row[0] = schema.attributes[0].type.validate(
                self.key_factory(self.rng)
            )
        return DataUpdate.insert(schema, [tuple(row)])


@dataclass
class DeleteRandomRow(UpdateIntent):
    """Delete one random existing row from a (random) relation.

    ``key_range`` restricts the choice to rows whose first attribute
    (the join key) lies in the closed range ``(lo, hi)``, so testbeds
    that narrow *inserted* keys to a hot domain can draw deletes from
    the same domain instead of the full key range.  Declarative, so the
    source counts and picks where the rows live (in SQL on sqlite).
    """

    rng: random.Random
    relation: str | None = None
    key_range: KeyRange | None = None

    def materialize(self, source: DataSource) -> SourceUpdate | None:
        names = [
            name
            for name in source.catalog.relation_names
            if source.row_count(name) > 0
        ]
        if not names:
            return None
        relation = self.relation
        if relation is None or relation not in names:
            relation = self.rng.choice(names)
        # Pick a deterministic "random" row without materializing the bag.
        row = source.pick_distinct_row(
            relation, self.rng.randrange, self.key_range
        )
        if row is None:
            return None
        return DataUpdate.delete(source.schema_of(relation), [row])

    # NOTE: both backends count distinct rows in first-occurrence order,
    # so given a fixed seed the choice is reproducible.


@dataclass
class DropRandomAttribute(UpdateIntent):
    """Drop a random non-key attribute of a (random) relation."""

    rng: random.Random
    relation: str | None = None
    protect_first: bool = True  # keep join keys intact by default

    def materialize(self, source: DataSource) -> SourceUpdate | None:
        names = list(source.catalog.relation_names)
        if not names:
            return None
        relation = self.relation
        if relation is None or relation not in source.catalog:
            relation = self.rng.choice(names)
        schema = source.schema_of(relation)
        start = 1 if self.protect_first else 0
        candidates = list(schema.attribute_names[start:])
        if not candidates:
            return None
        return DropAttribute(relation, self.rng.choice(candidates))


@dataclass
class RenameRandomRelation(UpdateIntent):
    """Rename a random relation by bumping a version suffix."""

    rng: random.Random
    relation: str | None = None

    def materialize(self, source: DataSource) -> SourceUpdate | None:
        names = list(source.catalog.relation_names)
        if not names:
            return None
        relation = self.relation
        if relation is None or relation not in source.catalog:
            relation = self.rng.choice(names)
        base, _, version = relation.partition("__v")
        next_version = int(version) + 1 if version.isdigit() else 2
        return RenameRelation(relation, f"{base}__v{next_version}")


@dataclass
class FixedUpdate(UpdateIntent):
    """An intent wrapping an already-concrete update."""

    update: SourceUpdate

    def materialize(self, source: DataSource) -> SourceUpdate | None:
        return self.update


# ----------------------------------------------------------------------
# timed workloads
# ----------------------------------------------------------------------


@dataclass
class WorkloadItem:
    """One scheduled autonomous commit."""

    at: float
    source_name: str
    intent: UpdateIntent


@dataclass
class Workload:
    """A time-ordered stream of scheduled commits."""

    items: list[WorkloadItem] = field(default_factory=list)

    def add(self, at: float, source_name: str, intent: UpdateIntent) -> None:
        self.items.append(WorkloadItem(at, source_name, intent))

    def extend(self, items: Iterable[WorkloadItem]) -> None:
        self.items.extend(items)

    def sorted(self) -> list[WorkloadItem]:
        return sorted(self.items, key=lambda item: item.at)

    def __iter__(self) -> Iterator[WorkloadItem]:
        return iter(self.sorted())

    def __len__(self) -> int:
        return len(self.items)
