"""SWEEP-style local compensation for concurrent data updates.

A maintenance query answered at virtual time *t* reflects every update
the source committed up to *t* — including data updates that are still
queued *behind* the update currently being maintained.  Left alone,
those leaked effects produce the duplication anomaly (Example 1.a).

Compensation removes them **locally**, without issuing further queries
(Agrawal et al. [1]): the view manager already holds the concurrent
deltas in its UMQ, so it evaluates the same probe query against the
pending deltas and subtracts the effect from the answer.

All maintenance probes in this library are single-relation queries,
which makes local compensation *exact*: the effect of a pending delta on
a probe answer is simply the probe query evaluated over the delta.  It
also makes it *linear* over signed bags — the summed effect of the
pending deltas is the effect of their sum — so a probe answer costs two
kernel executes per delta schema however deep the queue is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..relational.delta import Delta, Row
from ..relational.errors import RelationalError
from ..relational.executor import execute
from ..relational.query import SPJQuery
from ..relational.schema import RelationSchema
from ..relational.table import Table
from ..sources.messages import DataUpdate, UpdateMessage


class OverCompensationError(RelationalError):
    """A corrected probe answer went negative.

    Compensation subtracted an effect that was not in the answer —
    possible only when maintenance ordering is broken.  Under Dyno's
    corrected orders this is a real bug, so strict mode surfaces it
    instead of clamping; baseline strategies (which deliberately skip
    correction) keep the historical clamp-and-note behaviour.
    """


@dataclass
class CompensationLog:
    """Diagnostics: what compensation did during one maintenance run."""

    #: size of the *net* effect subtracted from the answers: deltas are
    #: netted before evaluation, so an insert a later delete takes back
    #: counts for nothing
    compensated_tuples: int = 0
    compensated_queries: int = 0
    #: deltas (not schema groups) the probe could not be evaluated over
    skipped_incompatible: int = 0
    notes: list[str] = field(default_factory=list)
    #: raise :class:`OverCompensationError` on a negative corrected
    #: count instead of clamping (armed for Dyno-corrected strategies)
    strict: bool = False


def sign_parts(
    schema: RelationSchema, items: Iterable[tuple[Row, int]]
) -> list[tuple[int, Table]]:
    """The non-empty sign parts of a signed bag, as ``(sign, table)``.

    Every row is validated against ``schema`` on the way in, so the
    kernel only ever sees rows typed for the schema its plan was
    compiled against.
    """
    positive = Table(schema)
    negative = Table(schema)
    for row, count in items:
        if count > 0:
            positive.insert(row, count)
        elif count < 0:
            negative.insert(row, -count)
    return [
        (sign, part)
        for sign, part in ((1, positive), (-1, negative))
        if part.distinct_count()
    ]


def _signed_effect(
    query: SPJQuery,
    alias: str,
    schema: RelationSchema,
    items: Iterable[tuple[Row, int]],
) -> tuple[RelationSchema, dict[Row, int]]:
    """Signed effect of a signed bag over ``schema`` on probe ``query``.

    A single-relation select-project query is linear over signed bags,
    so the bag is evaluated once per sign, whatever number of deltas it
    nets.  An empty bag is evaluated over an empty table: schema drift
    still surfaces, and the caller learns the answer's schema.  Raises
    before anything is returned, so a caller never folds half a bag.
    The effect is a plain count map (zero counts possible), not a
    :class:`Delta`: interning every effect row costs a fifth of a
    200-deep compensation.
    """
    effect: dict[Row, int] = {}
    for sign, part in sign_parts(schema, items) or [(1, Table(schema))]:
        result = execute(query, {alias: part})
        for row, count in result.items():
            effect[row] = effect.get(row, 0) + sign * count
    return result.schema, effect


def effect_on_answer(query: SPJQuery, alias: str, delta: Delta) -> Delta:
    """Signed effect of ``delta`` on the answer of probe ``query``."""
    return Delta(*_signed_effect(query, alias, delta.schema, delta.items()))


def pending_data_updates(
    messages_behind: list[UpdateMessage],
    source: str,
    relation: str,
    answered_at: float,
) -> list[UpdateMessage]:
    """Which queued updates leaked into an answer from ``source``.

    An update leaked iff it is a data update on the probed relation of
    the probed source and it committed no later than the answer was
    evaluated.  Updates committed *after* evaluation (e.g. during result
    transfer) did not affect the answer and must not be compensated.
    """
    leaked: list[UpdateMessage] = []
    for message in messages_behind:
        if not message.is_data_update:
            continue
        payload = message.payload
        assert isinstance(payload, DataUpdate)
        if (
            message.source == source
            and payload.relation == relation
            and message.committed_at <= answered_at + 1e-12
        ):
            leaked.append(message)
    return leaked


def _net_by_schema(
    deltas: list[Delta],
) -> list[tuple[RelationSchema, int, Iterable[tuple[Row, int]]]]:
    """Net ``deltas`` into one signed bag per distinct schema.

    Returns ``(schema, member deltas, signed items)`` per bag.  Schemas
    group by equality (translated deltas carry equal but distinct schema
    objects); identity is tried first because hashing or comparing a
    schema costs more than netting a one-row delta.  A row inserted by
    one delta and deleted by another cancels here and never reaches the
    kernel.  Zero or one delta is the common case off a burst and nets
    nothing: the delta is used as it is.
    """
    deltas = [delta for delta in deltas if not delta.is_empty()]
    if len(deltas) <= 1:
        return [(delta.schema, 1, delta.items()) for delta in deltas]
    bags: list[list] = []  # [schema, members, net counts]
    for delta in deltas:
        schema = delta.schema
        for bag in bags:
            if bag[0] is schema or bag[0] == schema:
                break
        else:
            bag = [schema, 0, {}]
            bags.append(bag)
        bag[1] += 1
        net = bag[2]
        for row, count in delta.items():
            net[row] = net.get(row, 0) + count
    return [(schema, members, net.items()) for schema, members, net in bags]


def compensate_answer(
    answer: Table,
    query: SPJQuery,
    alias: str,
    leaked: list[UpdateMessage],
    log: CompensationLog | None = None,
    extra_deltas: list[Delta] | None = None,
) -> Table:
    """Subtract the effect of leaked updates from a probe answer.

    ``extra_deltas`` lets the caller compensate effects that are not UMQ
    messages — the self-join case where the update's own delta must be
    removed from probes of later occurrences of the same relation.

    The probe is linear over signed bags, so the leaked deltas are
    netted per schema and evaluated once per sign, not once each (see
    :func:`_net_by_schema`).

    Returns a fresh table; the input answer is not modified.  If the
    probe cannot be evaluated over a schema's deltas (schema drift),
    every one of them is skipped and counted in the log, and none of
    their effect is applied — under Dyno's corrected orders this never
    happens (see tests), but baseline strategies that skip correction
    can hit it.
    """
    deltas: list[Delta] = [
        message.payload.delta  # type: ignore[union-attr]
        for message in leaked
    ]
    if extra_deltas:
        deltas.extend(extra_deltas)
    corrected: dict[Row, int] = dict(answer.items())
    for schema, members, items in _net_by_schema(deltas):
        try:
            _, effect = _signed_effect(query, alias, schema, items)
        except RelationalError as exc:
            if log is not None:
                log.skipped_incompatible += members
                log.notes.extend(
                    [f"skipped incompatible delta: {exc}"] * members
                )
            continue
        for row, count in effect.items():
            corrected[row] = corrected.get(row, 0) - count
        if log is not None:
            log.compensated_tuples += sum(map(abs, effect.values()))
    if log is not None:
        log.compensated_queries += 1

    # Answer rows came out of a validated table and effect rows out of
    # the kernel over validated parts: adopt them, do not re-validate.
    kept: dict[Row, int] = {}
    for row, count in corrected.items():
        if count > 0:
            kept[row] = count
        elif count < 0:
            # A negative corrected count means we subtracted an effect
            # that was not actually in the answer — possible only when
            # maintenance ordering is broken (baseline strategies).
            if log is not None and log.strict:
                raise OverCompensationError(
                    f"over-compensation on {row!r} (count {count})"
                )
            if log is not None:
                log.notes.append(
                    f"over-compensation on {row!r} (count {count})"
                )
    return Table.from_counts(answer.schema, kept)
