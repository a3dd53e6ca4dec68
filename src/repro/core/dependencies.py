"""Dependencies between maintenance processes (Section 3).

Two kinds of constraints restrict the order in which queued updates may
be maintained:

* **Concurrent dependency (CD, Definition 3)** — a schema change's
  maintenance *writes* the view definition, every maintenance *reads*
  it.  The writer must go first, but only when the write actually
  invalidates what the reader's maintenance will touch: Section 4.1.1
  draws the edge when the schema change "modifies any metadata ... that
  is included in the view query".  We refine "the view query" to the
  *maintenance footprint* of the dependent update — for a data update,
  the view query minus the updated relation itself (its own relation is
  never probed), which is what makes Figure 4's ``DU1``/``SC2`` pair
  independent of each other's CDs.
* **Semantic dependency (SD, Definition 4)** — updates of the same
  relation must be maintained in commit order (inserting then deleting a
  tuple cannot be replayed backwards).

A :class:`Dependency` is oriented ``before -> after``: ``before`` must
be maintained first.  The live graph that draws these edges is
:class:`~repro.core.incremental.IncrementalDependencyGraph`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from ..relational.query import SPJQuery
from ..sources.messages import (
    DropAttribute,
    DropRelation,
    RenameAttribute,
    RenameRelation,
    RestructureRelations,
    SchemaChange,
    UpdateMessage,
)


class DependencyKind(Enum):
    CONCURRENT = "cd"
    SEMANTIC = "sd"


class NameResolver:
    """Resolves renamed relation/attribute names to their *root* names.

    A queue can contain rename chains (``R6 -> R6__v2 -> R6__v3``); the
    later links reference names the current view definition has never
    heard of, yet they absolutely invalidate it.  The resolver maps any
    name appearing in the queue back to the root name of its lineage so
    conflict tests compare like with like.  Names introduced by
    create/restructure start fresh lineages.

    A *name* is a key of the two maps: ``(source, relation)`` or
    ``(source, root relation, attribute)``.
    """

    def __init__(self) -> None:
        self._relation_root: dict[tuple[str, str], str] = {}
        self._attribute_root: dict[tuple[str, str, str], str] = {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NameResolver):
            return NotImplemented
        return (
            self._relation_root == other._relation_root
            and self._attribute_root == other._attribute_root
        )

    def extend(self, message: UpdateMessage) -> tuple | None:
        """Fold one more queued message in; return the one name whose
        root that changed (every other name keeps its root), if any."""
        payload = message.payload
        source = message.source
        if isinstance(payload, RenameRelation):
            roots = self._relation_root
            name = (source, payload.new)
            root = self.relation(source, payload.old)
        elif isinstance(payload, RenameAttribute):
            roots = self._attribute_root
            name = (
                source,
                self.relation(source, payload.relation),
                payload.new,
            )
            root = self.attribute(source, payload.relation, payload.old)[1]
        elif isinstance(payload, RestructureRelations):
            roots = self._relation_root
            created = payload.new_schema.name
            name, root = (source, created), created
        else:
            return None
        moved = roots.get(name, name[-1]) != root
        roots[name] = root
        return name if moved else None

    def relation(self, source: str, name: str) -> str:
        return self._relation_root.get((source, name), name)

    def attribute(
        self, source: str, relation: str, attribute: str
    ) -> tuple[str, str]:
        """(root relation, root attribute) for a reference."""
        relation_root = self.relation(source, relation)
        return relation_root, self._attribute_root.get(
            (source, relation_root, attribute), attribute
        )


_IDENTITY_RESOLVER: "NameResolver" = NameResolver()


@dataclass(frozen=True)
class Dependency:
    """``before`` must be maintained before ``after``."""

    before_index: int
    after_index: int
    kind: DependencyKind


@dataclass(frozen=True)
class Footprint:
    """The metadata one update's maintenance will read at the sources."""

    relations: frozenset[tuple[str, str]]
    attributes: frozenset[tuple[str, str, str]]

    def normalized(self, resolver: NameResolver) -> "Footprint":
        """Map every name to its rename-lineage root."""
        relations = frozenset(
            (source, resolver.relation(source, relation))
            for source, relation in self.relations
        )
        attributes = frozenset(
            (source, *resolver.attribute(source, relation, attribute))
            for source, relation, attribute in self.attributes
        )
        return Footprint(relations, attributes)

    def names_read(self, resolver: NameResolver) -> set[tuple]:
        """The resolver names :meth:`normalized` reads."""
        names: set[tuple] = set(self.relations)
        for source, relation, attribute in self.attributes:
            names.add((source, relation))
            names.add((source, resolver.relation(source, relation), attribute))
        return names

    def conflicted_by(
        self,
        source: str,
        change: SchemaChange,
        resolver: NameResolver = _IDENTITY_RESOLVER,
    ) -> bool:
        """Does ``change`` invalidate this (already normalized)
        footprint?  The change's names are rooted via ``resolver``."""
        relations, attribute = _named(change)
        if attribute is None:
            return any(
                (source, resolver.relation(source, relation))
                in self.relations
                for relation in relations
            )
        return (
            source,
            *resolver.attribute(source, relations[0], attribute),
        ) in self.attributes


def _named(change: SchemaChange) -> tuple[tuple[str, ...], str | None]:
    """The relations a change invalidates, and the attribute of the one
    it names, if it invalidates an attribute (additions: nothing)."""
    if isinstance(change, RenameRelation):
        return (change.old,), None
    if isinstance(change, DropRelation):
        return (change.relation,), None
    if isinstance(change, RestructureRelations):
        return change.dropped, None
    if isinstance(change, RenameAttribute):
        return (change.relation,), change.old
    if isinstance(change, DropAttribute):
        return (change.relation,), change.attribute
    return (), None


def names_read_by_change(
    source: str, change: SchemaChange, resolver: NameResolver
) -> set[tuple]:
    """The resolver names :meth:`Footprint.conflicted_by` reads for
    ``change``: its verdicts hold while none of them is re-rooted."""
    relations, attribute = _named(change)
    names: set[tuple] = {(source, relation) for relation in relations}
    if attribute is not None:
        root = resolver.relation(source, relations[0])
        names.add((source, root, attribute))
    return names


def footprint_of_query(
    query: SPJQuery, exclude_aliases: frozenset[str] = frozenset()
) -> Footprint:
    """All (source, relation[, attribute]) metadata a maintenance built
    from ``query`` reads, minus the excluded aliases."""
    relations: set[tuple[str, str]] = set()
    attributes: set[tuple[str, str, str]] = set()
    by_alias = {ref.alias: ref for ref in query.relations}
    for ref in query.relations:
        if ref.alias in exclude_aliases:
            continue
        relations.add((ref.source, ref.relation))
    for attr_ref in query.all_attribute_refs():
        if attr_ref.relation is None or attr_ref.relation in exclude_aliases:
            continue
        owner = by_alias.get(attr_ref.relation)
        if owner is None:
            # Speculative rewrites can leave attribute references to an
            # alias no longer in the FROM list (e.g. a dropped-relation
            # rewrite that prunes the relation but not every predicate).
            # Such a dangling reference reads no source metadata, so it
            # contributes nothing to the footprint.
            continue
        attributes.add((owner.source, owner.relation, attr_ref.name))
    return Footprint(frozenset(relations), frozenset(attributes))


#: one view query or several (multi-view deployments share one UMQ)
ViewQueries = "SPJQuery | tuple[SPJQuery, ...] | list[SPJQuery]"


def _as_queries(view_queries) -> tuple[SPJQuery, ...]:
    if isinstance(view_queries, SPJQuery):
        return (view_queries,)
    return tuple(view_queries)


def _union(footprints: list[Footprint]) -> Footprint:
    relations: frozenset = frozenset()
    attributes: frozenset = frozenset()
    for footprint in footprints:
        relations |= footprint.relations
        attributes |= footprint.attributes
    return Footprint(relations, attributes)


def footprint_of_update(
    message: UpdateMessage,
    view_queries,
    rewritten_queries: Callable[[UpdateMessage], object] | None = None,
    resolver: NameResolver = _IDENTITY_RESOLVER,
    of_query=footprint_of_query,
) -> Footprint:
    """The maintenance footprint of one queued update.

    * A data update's maintenance probes every view relation except its
      own (unless the relation appears in several aliases — a self-join
      probes the other occurrence, so nothing is excluded).  With
      several views, the per-view footprints (each with its own
      exclusion) are unioned.
    * A schema change's maintenance adapts the *rewritten* view(s): when
      the caller can synchronize speculatively it supplies
      ``rewritten_queries`` and the footprint covers old and new
      definitions; otherwise the current definitions are used.

    ``of_query`` derives one query's footprint; the cache memoises it.
    """
    queries = _as_queries(view_queries)
    if message.is_schema_change:
        footprints = [of_query(query) for query in queries]
        if rewritten_queries is not None:
            for rewritten in _as_queries(rewritten_queries(message)):
                footprints.append(of_query(rewritten))
        return _union(footprints)

    payload = message.payload
    updated_root = resolver.relation(
        message.source, payload.relation  # type: ignore[union-attr]
    )
    footprints = []
    for query in queries:
        own_aliases = frozenset(
            ref.alias
            for ref in query.relations
            if ref.source == message.source
            and resolver.relation(ref.source, ref.relation) == updated_root
        )
        if not own_aliases:
            # This view does not reference the updated relation, so the
            # update's maintenance is a no-op for it: no probes, no
            # footprint contribution.
            continue
        if len(own_aliases) != 1:
            own_aliases = frozenset()  # self-join: everything is probed
        footprints.append(of_query(query, own_aliases))
    return _union(footprints)


def names_read_by_update(message: UpdateMessage, view_queries) -> set[tuple]:
    """The resolver names :func:`footprint_of_update` roots for a data
    update: its own relation and every view relation at its source."""
    names = {(message.source, message.payload.relation)}
    names.update(
        (ref.source, ref.relation)
        for query in _as_queries(view_queries)
        for ref in query.relations
        if ref.source == message.source
    )
    return names
