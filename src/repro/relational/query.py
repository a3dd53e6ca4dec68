"""Select-project-join query AST.

A :class:`SPJQuery` is pure data: relation references (each naming the
*source* that owns the relation, matching the paper's distributed
setting), equi-join conditions, a selection predicate and a projection
list.  The view definition, maintenance queries and compensation queries
are all SPJ queries; the executor (:mod:`repro.relational.executor`)
evaluates them against bags of rows.

The AST supports the structural rewrites view synchronization needs:
renaming relations/attributes, substituting attribute references and
removing a relation with every term that touches it.

A query is immutable, so what follows from its fields alone — its
aliases, the attributes it mentions, its hash, its *shape* (see
:attr:`SPJQuery.prepared`) — is computed once per object and remembered
beside the fields (:class:`~repro.relational.types.Memoised`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

from .errors import QueryError
from .predicate import (
    TRUE,
    AttrRef,
    Predicate,
    Substitution,
    conjunction,
)
from .types import Memoised


@dataclass(frozen=True)
class RelationRef:
    """A relation in a query: which source owns it, its name, its alias."""

    source: str
    relation: str
    alias: str

    def sql(self) -> str:
        if self.alias == self.relation:
            return self.relation
        return f"{self.relation} {self.alias}"


@dataclass(frozen=True)
class JoinCondition:
    """Equi-join between two attributes of different relations."""

    left: AttrRef
    right: AttrRef

    def __post_init__(self) -> None:
        if self.left.relation is None or self.right.relation is None:
            raise QueryError(
                "join conditions must use qualified attribute references"
            )

    def references(self) -> frozenset[AttrRef]:
        return frozenset({self.left, self.right})

    def touches(self, alias: str) -> bool:
        return alias in (self.left.relation, self.right.relation)

    def attr_of(self, alias: str) -> AttrRef:
        if self.left.relation == alias:
            return self.left
        if self.right.relation == alias:
            return self.right
        raise QueryError(f"join {self.sql()} does not touch alias {alias!r}")

    def other_side(self, alias: str) -> AttrRef:
        if self.left.relation == alias:
            return self.right
        if self.right.relation == alias:
            return self.left
        raise QueryError(f"join {self.sql()} does not touch alias {alias!r}")

    def substituted(self, substitution: Substitution) -> "JoinCondition":
        return JoinCondition(
            substitution.get(self.left, self.left),
            substitution.get(self.right, self.right),
        )

    def sql(self) -> str:
        return f"{self.left.qualified()} = {self.right.qualified()}"


@dataclass(frozen=True)
class SPJQuery(Memoised):
    """A select-project-join query over distributed relations."""

    relations: tuple[RelationRef, ...]
    projection: tuple[AttrRef, ...]
    joins: tuple[JoinCondition, ...] = ()
    selection: Predicate = TRUE

    def __post_init__(self) -> None:
        if not self.relations:
            raise QueryError("a query needs at least one relation")
        aliases = self.aliases
        known = set(aliases)
        if len(known) != len(aliases):
            raise QueryError(f"duplicate aliases in query: {list(aliases)}")
        for ref in self.all_attribute_refs():
            if ref.relation is not None and ref.relation not in known:
                raise QueryError(
                    f"attribute {ref.qualified()} references unknown "
                    f"alias {ref.relation!r}"
                )

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash(
            (self.relations, self.projection, self.joins, self.selection)
        )

    # ------------------------------------------------------------------
    # shape and parameters (what a compiled plan is keyed on)
    # ------------------------------------------------------------------

    @cached_property
    def prepared(self) -> tuple["SPJQuery", tuple[frozenset, ...]]:
        """``(shape, parameters)``: this query with every IN-list lifted
        into a positional parameter, and the lifted lists in order.

        The shape is the plan-cache key: two probes that differ only in
        the join values they ship share one compiled plan.  A query
        without IN-lists is its own shape; one made by :meth:`bind`
        shares its template's shape object, so looking its plan up
        compares by identity.
        """
        values: list[frozenset] = []
        selection = self.selection.lifted(values)
        if not values:
            return self, ()
        return replace(self, selection=selection), tuple(values)

    def bind(self, parameters: tuple[frozenset, ...]) -> "SPJQuery":
        """The query of shape ``self`` whose IN-lists are ``parameters``
        (inverse of :attr:`prepared`).

        Binding changes no alias and no attribute reference, so there
        is nothing for ``__post_init__`` to validate again and the memos
        that follow from the references carry over; this is the one
        per-probe construction of a maintenance sweep.
        """
        query = object.__new__(type(self))
        vars(query).update(
            self.__getstate__(),  # the fields
            selection=self.selection.bound(parameters),
            aliases=self.aliases,
            _attribute_refs=self._attribute_refs,
            prepared=(self, parameters),
        )
        return query

    def derived(self, derive, *arguments):
        """``derive(self, *arguments)``, computed once per query object:
        for what other layers work out from this query alone (the
        maintenance layer's prepared probe sweep)."""
        memo = self._derived
        key = (derive, *arguments)
        try:
            return memo[key]
        except KeyError:
            value = memo[key] = derive(self, *arguments)
            return value

    @cached_property
    def _derived(self) -> dict:
        return {}

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @cached_property
    def aliases(self) -> tuple[str, ...]:
        return tuple(ref.alias for ref in self.relations)

    def relation_ref(self, alias: str) -> RelationRef:
        for ref in self.relations:
            if ref.alias == alias:
                return ref
        raise QueryError(f"no relation with alias {alias!r}")

    def sources(self) -> frozenset[str]:
        return frozenset(ref.source for ref in self.relations)

    def all_attribute_refs(self) -> frozenset[AttrRef]:
        """Every attribute the query mentions anywhere."""
        return self._attribute_refs

    @cached_property
    def _attribute_refs(self) -> frozenset[AttrRef]:
        refs = set(self.projection)
        refs |= self.selection.references()
        for join in self.joins:
            refs |= join.references()
        return frozenset(refs)

    def references_relation(self, source: str, relation: str) -> bool:
        return any(
            ref.source == source and ref.relation == relation
            for ref in self.relations
        )

    def references_attribute(
        self, source: str, relation: str, attribute: str
    ) -> bool:
        """Does the query mention ``relation.attribute`` at ``source``?"""
        aliases = {
            ref.alias
            for ref in self.relations
            if ref.source == source and ref.relation == relation
        }
        if not aliases:
            return False
        return any(
            ref.relation in aliases and ref.name == attribute
            for ref in self.all_attribute_refs()
        )

    # ------------------------------------------------------------------
    # structural rewrites (used by view synchronization)
    # ------------------------------------------------------------------

    def with_relation_renamed(
        self, source: str, old: str, new: str
    ) -> "SPJQuery":
        """Rename a base relation; aliases (and thus attr refs) survive."""
        relations = tuple(
            replace(ref, relation=new)
            if ref.source == source and ref.relation == old
            else ref
            for ref in self.relations
        )
        return replace(self, relations=relations)

    def with_attribute_renamed(
        self, alias: str, old: str, new: str
    ) -> "SPJQuery":
        """Rename every reference ``alias.old`` to ``alias.new``."""
        target = AttrRef(alias, old)
        substitution = {target: AttrRef(alias, new)}
        return self.substituted(substitution)

    def substituted(self, substitution: Substitution) -> "SPJQuery":
        projection = tuple(
            substitution.get(ref, ref) for ref in self.projection
        )
        joins = tuple(join.substituted(substitution) for join in self.joins)
        selection = self.selection.substituted(substitution)
        return replace(
            self, projection=projection, joins=joins, selection=selection
        )

    def without_relation(self, alias: str) -> "SPJQuery":
        """Remove a relation plus every join/projection/selection term
        touching it.  This is the last-resort view evolution when a
        dropped relation has no replacement."""
        relations = tuple(ref for ref in self.relations if ref.alias != alias)
        if not relations:
            raise QueryError("cannot remove the only relation of a query")
        joins = tuple(
            join for join in self.joins if not join.touches(alias)
        )
        projection = tuple(
            ref for ref in self.projection if ref.relation != alias
        )
        if not projection:
            raise QueryError(
                f"removing alias {alias!r} would empty the projection"
            )
        selection = _prune_selection(self.selection, alias)
        return SPJQuery(relations, projection, joins, selection)

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------

    def sql(self, marks: Sequence[str] | None = None) -> str:
        """SQL text; ``marks`` as in :meth:`Predicate.sql`."""
        select = ", ".join(ref.qualified() for ref in self.projection)
        from_clause = ", ".join(ref.sql() for ref in self.relations)
        where_terms = [join.sql() for join in self.joins]
        if self.selection is not TRUE:
            where_terms.append(self.selection.sql(marks))
        sql = f"SELECT {select} FROM {from_clause}"
        if where_terms:
            sql += " WHERE " + " AND ".join(where_terms)
        return sql


def _prune_selection(predicate: Predicate, alias: str) -> Predicate:
    """Drop conjuncts of ``predicate`` that mention ``alias``.

    Only safe for conjunctive selections; anything non-conjunctive that
    touches the alias is dropped wholesale (view evolution is allowed to
    produce a non-equivalent view, see footnote 1 of the paper).
    """
    from .predicate import Conjunction

    def touches(p: Predicate) -> bool:
        return any(ref.relation == alias for ref in p.references())

    if isinstance(predicate, Conjunction):
        kept = [child for child in predicate.children if not touches(child)]
        return conjunction(kept)
    if touches(predicate):
        return TRUE
    return predicate
