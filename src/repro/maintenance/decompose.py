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
prepared probes (:func:`probe_template`).  Each step carries the stage
that folds its answer into the sweep's running join: its joins and the
conjuncts it completes (docs/ALGORITHMS.md §"View maintenance: the
probe sweep").
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
from ..relational.plan import Fold, Stage, _single_alias_conjuncts
from ..relational.query import RelationRef, SPJQuery
from ..relational.schema import RelationSchema


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
    pushdown, _rest = _single_alias_conjuncts(query.selection)
    return conjunction(pushdown.get(alias, []))


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
    #: how the running join folds this relation's answer in; a stage
    #: with no joins is a disconnected relation, read with a full scan
    stage: Fold
    #: IN-lists read off the running join, one per join -> the query to
    #: ship
    source_query: Callable[[list[frozenset]], SPJQuery]


class ProbeSweep(NamedTuple):
    """The sweep maintaining a delta on one alias, prepared."""

    start: Fold
    steps: tuple[SweepStep, ...]
    projection: tuple[AttrRef, ...]
    #: the view's IN-lists, bound to the stages per call
    parameters: tuple
    #: delta schema -> compiled first stage
    stages: dict

    def stage(self, schema: RelationSchema) -> Stage:
        """The running join's first stage over a delta in ``schema``."""
        stage = self.stages.get(schema)
        if stage is None:
            stage = Stage(None, self.start, schema)
            self.stages[schema] = stage
        return stage


def probe_sweep(query: SPJQuery, delta_alias: str) -> ProbeSweep:
    """The sweep maintaining a delta on ``delta_alias``: every other
    relation in breadth-first order from it, each probed with the join
    values of the running join so far.  Derived once per query object.
    """
    return query.derived(_derive_sweep, delta_alias)


def _derive_sweep(query: SPJQuery, delta_alias: str) -> ProbeSweep:
    shape, parameters = query.prepared
    pushdown, rest = _single_alias_conjuncts(shape.selection)
    order = bfs_alias_order(query, delta_alias)
    # A conjunct applies at the stage that folds the last of its
    # relations in, so the join each probe reads is the view over the
    # visited prefix; one naming an unqualified attribute, at the end.
    position = {alias: index for index, alias in enumerate(order)}
    placed: list[list[Predicate]] = [[] for _ in order]
    for term in rest:
        aliases = {ref.relation for ref in term.references()}
        if None in aliases:
            placed[-1].append(term)
        else:
            placed[max(map(position.get, aliases), default=0)].append(term)
    folds = [
        Fold(
            alias,
            tuple(connecting_joins(query, alias, set(order[:index]))),
            tuple(pushdown.get(alias, ())),
            tuple(placed[index]),
        )
        for index, alias in enumerate(order)
    ]
    steps: list[SweepStep] = []
    for alias, fold in zip(order[1:], folds[1:]):
        if fold.joins:
            # Two joins on one attribute of ``alias`` probe it once,
            # with the later join's values.
            column_of = {
                join.attr_of(alias).name: column
                for column, join in enumerate(fold.joins)
            }
            attributes = tuple(sorted(column_of))
            columns = [column_of[attribute] for attribute in attributes]
            bind = probe_template(query, alias, attributes)

            def source_query(value_sets, _bind=bind, _columns=columns):
                return _bind(tuple(value_sets[c] for c in _columns))

        else:
            scan = scan_query(query, alias)

            def source_query(value_sets, _scan=scan):
                return _scan

        steps.append(SweepStep(query.relation_ref(alias), fold, source_query))
    return ProbeSweep(folds[0], tuple(steps), shape.projection, parameters, {})
