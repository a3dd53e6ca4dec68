"""Decomposing a view query into per-source maintenance queries.

Definition 1: maintaining an update means reading the view definition,
decomposing the view query into individual source queries, probing each
source, and assembling the answers locally.  This module owns the
decomposition: which columns of each relation the view manager needs,
which selection conjuncts can be pushed to a source, and how to build
probe (IN-list) and scan queries for one alias.

All of it follows from the view query alone, so it is *prepared*:
:func:`probe_sweep` derives the whole sweep for one updated alias once
per query object — view synchronization replaces the definition
wholesale, so a new view version is a new object and nothing is ever
invalidated — and a data update only binds its join values into the
prepared probes (:func:`probe_template`).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, NamedTuple

from ..relational.predicate import (
    TRUE,
    AttrRef,
    Conjunction,
    InPredicate,
    Predicate,
    conjunction,
)
from ..relational.query import RelationRef, SPJQuery


def needed_columns(query: SPJQuery, alias: str) -> tuple[str, ...]:
    """Attributes of ``alias`` the view manager needs (projection order
    first, then join/selection attributes)."""
    ordered: list[str] = []
    seen: set[str] = set()
    for ref in query.projection:
        if ref.relation == alias and ref.name not in seen:
            ordered.append(ref.name)
            seen.add(ref.name)
    for ref in sorted(
        query.all_attribute_refs(), key=lambda r: (r.relation or "", r.name)
    ):
        if ref.relation == alias and ref.name not in seen:
            ordered.append(ref.name)
            seen.add(ref.name)
    return tuple(ordered)


def selection_conjuncts(query: SPJQuery) -> list[Predicate]:
    selection = query.selection
    if selection is TRUE:
        return []
    if isinstance(selection, Conjunction):
        return list(selection.children)
    return [selection]


def pushdown_selection(query: SPJQuery, alias: str) -> Predicate:
    """Conjuncts of the view selection referencing only ``alias``."""
    terms = [
        term
        for term in selection_conjuncts(query)
        if {ref.relation for ref in term.references()} == {alias}
    ]
    return conjunction(terms)


def selection_within(query: SPJQuery, aliases: set[str]) -> Predicate:
    """Conjuncts whose references fall entirely inside ``aliases``."""
    terms = [
        term
        for term in selection_conjuncts(query)
        if {ref.relation for ref in term.references()} <= aliases
    ]
    return conjunction(terms)


def _read_query(
    query: SPJQuery, alias: str, selection: Predicate
) -> SPJQuery:
    """The needed columns of ``alias`` where ``selection`` holds."""
    return SPJQuery(
        relations=(query.relation_ref(alias),),
        projection=tuple(
            AttrRef(alias, name) for name in needed_columns(query, alias)
        ),
        joins=(),
        selection=selection,
    )


def probe_template(
    query: SPJQuery, alias: str, attributes: tuple[str, ...]
) -> Callable[[tuple[frozenset, ...]], SPJQuery]:
    """The probe of ``alias`` on ``attributes`` with its IN-lists left
    open: ``value lists -> probe``, one list per attribute, in order.

    Needed columns, pushdown selection and the probe's shape are worked
    out once per query object; binding builds the IN-lists and nothing
    else, and every probe bound from one template — whichever updated
    relation's sweep asks — shares its shape object, the plan-cache key
    (:attr:`SPJQuery.prepared`).
    """
    return query.derived(_derive_template, alias, attributes)


def _derive_template(
    query: SPJQuery, alias: str, attributes: tuple[str, ...]
) -> Callable[[tuple[frozenset, ...]], SPJQuery]:
    shape, lists = _read_query(
        query,
        alias,
        conjunction(
            [pushdown_selection(query, alias)]
            + [
                InPredicate(AttrRef(alias, attribute), frozenset())
                for attribute in attributes
            ]
        ),
    ).prepared
    # IN-lists of the view's own selection come first in parameter
    # order and are the same in every probe; the probe's own follow.
    fixed = lists[: len(lists) - len(attributes)]
    return lambda values: shape.bind(fixed + values)


def probe_query(
    query: SPJQuery,
    alias: str,
    probes: dict[str, frozenset],
) -> SPJQuery:
    """A single-relation probe: needed columns of ``alias`` where each
    probe attribute is IN its value list, plus pushdown selection."""
    attributes = tuple(sorted(probes))
    return probe_template(query, alias, attributes)(
        tuple(probes[attribute] for attribute in attributes)
    )


def scan_query(query: SPJQuery, alias: str) -> SPJQuery:
    """A full single-relation read of the needed columns of ``alias``."""
    return _read_query(query, alias, pushdown_selection(query, alias))


def subquery_over(
    query: SPJQuery,
    aliases: list[str],
    projection: tuple[AttrRef, ...],
) -> SPJQuery:
    """The view query restricted to a subset of aliases."""
    alias_set = set(aliases)
    relations = tuple(
        ref for ref in query.relations if ref.alias in alias_set
    )
    joins = tuple(
        join
        for join in query.joins
        if join.left.relation in alias_set and join.right.relation in alias_set
    )
    return SPJQuery(
        relations=relations,
        projection=projection,
        joins=joins,
        selection=selection_within(query, alias_set),
    )


def bfs_alias_order(query: SPJQuery, start_alias: str) -> list[str]:
    """Aliases in breadth-first order over the join graph from ``start``.

    Aliases unreachable from the start (disconnected join graph) are
    appended at the end in query order; callers fetch them with full
    scans instead of probes.
    """
    adjacency: dict[str, set[str]] = {alias: set() for alias in query.aliases}
    for join in query.joins:
        left = join.left.relation
        right = join.right.relation
        adjacency[left].add(right)  # type: ignore[index]
        adjacency[right].add(left)  # type: ignore[index]
    order: list[str] = []
    seen: set[str] = set()
    queue: deque[str] = deque([start_alias])
    seen.add(start_alias)
    while queue:
        alias = queue.popleft()
        order.append(alias)
        for neighbour in sorted(adjacency[alias]):
            if neighbour not in seen:
                seen.add(neighbour)
                queue.append(neighbour)
    for alias in query.aliases:
        if alias not in seen:
            order.append(alias)
            seen.add(alias)
    return order


def connecting_joins(
    query: SPJQuery, alias: str, visited: set[str]
) -> list:
    """Join conditions linking ``alias`` to already-visited aliases."""
    return [
        join
        for join in query.joins
        if join.touches(alias)
        and join.other_side(alias).relation in visited
    ]


class SweepStep(NamedTuple):
    """One relation of the probe sweep, prepared."""

    ref: RelationRef
    #: the view query over the aliases visited so far, projecting the
    #: join values to probe with; ``None`` for a disconnected relation,
    #: which is read with a full scan
    partial: SPJQuery | None
    #: distinct values per column of the partial's answer -> the query
    #: to ship
    source_query: Callable[[list[frozenset]], SPJQuery]


def probe_sweep(query: SPJQuery, delta_alias: str) -> tuple[SweepStep, ...]:
    """The sweep maintaining a delta on ``delta_alias``: every other
    relation in breadth-first order from it, each probed with the join
    values of the partial result so far.  Derived once per query object.
    """
    return query.derived(_derive_sweep, delta_alias)


def _derive_sweep(
    query: SPJQuery, delta_alias: str
) -> tuple[SweepStep, ...]:
    steps: list[SweepStep] = []
    visited = {delta_alias}
    for alias in bfs_alias_order(query, delta_alias)[1:]:
        joins = connecting_joins(query, alias, visited)
        if joins:
            partial = subquery_over(
                query,
                sorted(visited),
                tuple(join.other_side(alias) for join in joins),
            )
            # Two joins on one attribute of ``alias`` probe it once,
            # with the later join's values.
            column_of = {
                join.attr_of(alias).name: column
                for column, join in enumerate(joins)
            }
            attributes = tuple(sorted(column_of))
            columns = [column_of[attribute] for attribute in attributes]
            bind = probe_template(query, alias, attributes)

            def source_query(value_sets, _bind=bind, _columns=columns):
                return _bind(tuple(value_sets[c] for c in _columns))

        else:
            partial = None
            scan = scan_query(query, alias)

            def source_query(value_sets, _scan=scan):
                return _scan

        steps.append(
            SweepStep(query.relation_ref(alias), partial, source_query)
        )
        visited.add(alias)
    return tuple(steps)
