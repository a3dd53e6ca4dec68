"""Adaptive group maintenance: merging safe UMQ runs into batches.

Section 5's batch preprocessing (combine the schema changes, homogenize
the data updates) is mandatory only when correction forces a dependency
cycle into one batch node.  Everything else in the UMQ pays a full
maintenance round — probe sweep plus compensation — per message, so
DU-heavy streams scale linearly in source round trips.  This module
adds the *voluntary* counterpart: a :class:`BatchPolicy` scans the
(corrected) queue for maximal **safe runs** and coalesces each into one
batch unit maintained in a single round.

A *safe run* is a maximal sequence of **consecutive** SC-free queue
units whose messages fit ``max_batch_size``, and merging one preserves
a legal order (Definition 7 / Theorem 2): a schema change is never
folded into a voluntary batch, so Theorem 1's broken-query detection
keeps its meaning — a query broken by a concurrent SC still aborts and
reorders exactly as before — and since every concurrent dependency (CD,
Definition 6) originates at a schema change, no CD edge can connect two
members of a run.

Why merging a safe run is legal: the batch occupies the run's position,
so every edge *crossing* the run keeps its relative order unchanged.
Edges *inside* the run are semantic dependencies (SD) between
consecutive touches of one ``(source, relation)``; they always point
forward in queue order, and the batch maintains its messages in exactly
that order — an SD inside a batch is satisfied by construction
(Section 4.2's argument for cycle batches, applied voluntarily).

The payoff is realized by :func:`coalesce_data_updates`: inside one
unit, same-relation deltas merge into a single delta, so the batch
issues **one probe sweep per touched relation** (one probe set per
source) instead of one per message.  The merge is exact — SPJ joins are
bilinear in their relations, so summing same-relation deltas before
probing reassociates the telescoping sum of per-message view deltas
without changing its value; insert/delete pairs that cancel inside the
batch simply drop out of the probe traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..relational.delta import Delta
from ..sources.messages import DataUpdate, UpdateMessage

if TYPE_CHECKING:
    from ..views.umq import MaintenanceUnit


@dataclass(frozen=True)
class BatchPolicy:
    """Voluntary group maintenance; ``batch_policy=None`` is "off".

    ``max_batch_size`` caps the *messages* per voluntary batch (latency
    bound: one huge batch would delay every member's visibility until
    the last probe answers).
    """

    max_batch_size: int = 16


def find_safe_runs(
    units: Sequence[MaintenanceUnit], policy: BatchPolicy
) -> list[tuple[int, int]]:
    """Maximal safe runs as ``[start, end)`` unit-index ranges.

    Only runs of two or more units are returned (a single unit is
    already its own maintenance round).  An SC-bearing unit is never
    admitted and ends the run before it.
    """
    runs: list[tuple[int, int]] = []
    index = 0
    while index < len(units):
        if units[index].has_schema_change:
            index += 1
            continue
        start = index
        size = len(units[index])
        index += 1
        while index < len(units):
            candidate = units[index]
            if (
                candidate.has_schema_change
                or size + len(candidate) > policy.max_batch_size
            ):
                break
            size += len(candidate)
            index += 1
        if index - start >= 2:
            runs.append((start, index))
    return runs


def merge_runs(
    units: Sequence[MaintenanceUnit], runs: Sequence[tuple[int, int]]
) -> tuple[list[MaintenanceUnit], int]:
    """The new unit order with every run merged in place.

    Returns ``(order, grouped)`` where *grouped* counts the messages
    *newly* entering a voluntary batch — members of an existing batch
    unit being extended (the parallel executor regroups every dispatch
    round as messages trickle in) are not recounted.  Runs must be
    disjoint and sorted (as :func:`find_safe_runs` yields them).
    """
    # not at module level: importing the views package loads the
    # manager, which imports this module
    from ..views.umq import MaintenanceUnit

    order: list[MaintenanceUnit] = []
    grouped = 0
    cursor = 0
    for start, end in runs:
        order.extend(units[cursor:start])
        batch = MaintenanceUnit.merged(units[start:end])
        grouped += sum(
            len(unit) for unit in units[start:end] if not unit.is_batch
        )
        order.append(batch)
        cursor = end
    order.extend(units[cursor:])
    return order, grouped


def coalesce_data_updates(
    messages: Sequence[UpdateMessage],
) -> list[UpdateMessage]:
    """Merge same-``(source, relation)`` data updates into one message.

    Input messages must be translated data updates (all deltas already
    expressed against current names).  Groups keep first-occurrence
    order; within a group, signed counts sum into one delta — exact by
    bilinearity of the SPJ join, since the in-unit pending overlay
    compensates every cross term exactly once regardless of how the
    per-relation sum is associated.  Synthetic messages carry the
    group's newest ``committed_at`` (all members are committed before
    the batch's maintenance starts, so every probe answer still
    post-dates them) and the last member's seqno; they exist only
    inside the maintenance computation and never enter the UMQ or the
    processed-message log.

    Falls back to the untouched sequence when any group mixes delta
    schemas (updates straddling an untranslated schema gap) — applying
    them one by one is always correct, merging is the optimization.
    """
    if len(messages) < 2:
        return list(messages)
    groups: dict[tuple[str, str], list[UpdateMessage]] = {}
    for message in messages:
        payload = message.payload
        assert isinstance(payload, DataUpdate)
        groups.setdefault(
            (message.source, payload.relation), []
        ).append(message)
    if len(groups) == len(messages):
        return list(messages)
    coalesced: list[UpdateMessage] = []
    for (source, relation), group in groups.items():
        if len(group) == 1:
            coalesced.append(group[0])
            continue
        schema = group[0].payload.delta.schema
        if any(
            message.payload.delta.schema != schema
            for message in group[1:]
        ):
            return list(messages)
        merged = Delta(schema)
        for message in group:
            for row, count in message.payload.delta.items():
                merged.add(row, count)
        if merged.is_empty():
            continue  # the group cancelled out: no probes needed
        coalesced.append(
            UpdateMessage(
                source,
                group[-1].seqno,
                max(message.committed_at for message in group),
                DataUpdate(relation, merged),
            )
        )
    return coalesced
