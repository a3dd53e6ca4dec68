"""Builders tests use to make their inputs.  None of them is part of the
package: the warehouse never calls them, so they live here."""

from __future__ import annotations

import random
from dataclasses import replace

from repro.faults.retry import RetryPolicy
from repro.maintenance.decompose import selection_conjuncts
from repro.relational.errors import QueryError
from repro.relational.predicate import AttrRef, Predicate, conjunction
from repro.relational.query import RelationRef, SPJQuery


def poisson_arrival_times(
    rng: random.Random, rate: float, count: int, start: float = 0.0
) -> list[float]:
    """``count`` arrival instants of a Poisson process with ``rate``
    events per virtual second (exponential inter-arrival gaps): burstier
    traffic than the paper's uniform spacing."""
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    times: list[float] = []
    at = start
    for _ in range(count):
        at += rng.expovariate(rate)
        times.append(at)
    return times


def with_extra_selection(query: SPJQuery, predicate: Predicate) -> SPJQuery:
    """``query`` restricted further by ``predicate``."""
    return replace(query, selection=conjunction([query.selection, predicate]))


def aggressive_retry_policy() -> RetryPolicy:
    """Many fast retries — for chaos suites with dense fault plans."""
    return RetryPolicy(
        max_attempts=8,
        base_backoff=0.02,
        max_backoff=0.5,
        deadline=30.0,
        quarantine_probe=1.0,
    )


def drain_events(engine) -> None:
    """Fire every scheduled event of ``engine`` in time order."""
    while engine.advance_to_next_event():
        pass


def with_relation_replaced(
    query: SPJQuery, alias: str, replacement: RelationRef
) -> SPJQuery:
    """Swap the relation behind ``alias`` for another under the same
    alias, so every attribute reference stays valid."""
    if replacement.alias != alias:
        raise QueryError(
            "replacement must keep the alias so attribute references "
            f"remain valid (got {replacement.alias!r} for {alias!r})"
        )
    relations = tuple(
        replacement if ref.alias == alias else ref for ref in query.relations
    )
    return replace(query, relations=relations)


def selection_within(query: SPJQuery, aliases: set[str]) -> Predicate:
    """Conjuncts whose references fall entirely inside ``aliases``."""
    terms = [
        term
        for term in selection_conjuncts(query)
        if {ref.relation for ref in term.references()} <= aliases
    ]
    return conjunction(terms)


def subquery_over(
    query: SPJQuery,
    aliases: list[str],
    projection: tuple[AttrRef, ...],
) -> SPJQuery:
    """The view query restricted to a subset of aliases: the partial
    join a probe sweep used to re-run over every visited prefix."""
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
