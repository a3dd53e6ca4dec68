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
pending deltas is the effect of their sum — so a probe answer costs at
most two kernel executes per delta schema however deep the queue is.

Only the deltas with a row the probe's IN-list admits are netted, and an
answer nothing admitted into comes back as it is, never to be mutated
(docs/ALGORITHMS.md §Compensation, *Read only what the probe admits*).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

from ..relational.delta import Delta, Row
from ..relational.errors import RelationalError
from ..relational.executor import BagProbe
from ..relational.plan import PlanCache
from ..relational.query import SPJQuery
from ..relational.schema import RelationSchema
from ..relational.table import Table
from ..sources.messages import UpdateMessage


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


def _effect(
    probe: BagProbe, bags: list[tuple[tuple[Row, int], ...]]
) -> tuple[RelationSchema, dict[Row, int]]:
    """Signed effect of ``bags`` — validated items of deltas of the
    probe's schema — on the probe's answer.

    A single-relation select-project query is linear over signed bags,
    so the bags' kept rows are netted and evaluated once per sign,
    whatever their number (:class:`~repro.relational.executor.BagProbe`
    keeps them; docs/ALGORITHMS.md §Compensation says why filtering
    first changes nothing).  The effect is a plain count map (zero
    counts possible), not a :class:`Delta`: the rows come out of the
    executor and need none of ``Delta.add``'s per-row checks.
    """
    if len(bags) == 1:
        items = probe.keep(bags[0])
    else:
        net: dict[Row, int] = {}
        for row, count in probe.keep(chain.from_iterable(bags)):
            net[row] = net.get(row, 0) + count
        items = net.items()
    effect: dict[Row, int] = {}
    for sign, answer in probe.parts(items):
        for row, count in answer.items():
            effect[row] = effect.get(row, 0) + sign * count
    return answer.schema, effect


def effect_on_answer(
    query: SPJQuery, alias: str, delta: Delta, plans: PlanCache | None = None
) -> Delta:
    """Signed effect of ``delta`` on the answer of probe ``query``."""
    probe = BagProbe(query, alias, delta.schema, plans)
    return Delta(*_effect(probe, [delta.validated_items()]))


def by_schema(deltas: list[Delta]) -> list[list[Delta]]:
    """``deltas`` grouped by schema, first use first.

    Schemas group by equality (translated deltas carry equal but
    distinct schema objects); identity is tried first because hashing or
    comparing a schema costs more than netting a one-row delta.
    """
    groups: list[list[Delta]] = []
    for delta in deltas:
        schema = delta.schema
        for members in groups:
            known = members[0].schema
            if known is schema or known == schema:
                members.append(delta)
                break
        else:
            groups.append([delta])
    return groups


def _admitted_effect(
    query: SPJQuery, alias: str, members: list[Delta], plans: PlanCache | None
) -> dict[Row, int]:
    """The effect of ``members`` (non-empty deltas of one schema) on the
    probe's answer, read from the members with a row the probe admits.

    Every member is validated first, admitted or not, so a row failing
    its schema raises here as it does on every use; none admitted: an
    empty effect, without a kernel call.
    """
    probe = BagProbe(query, alias, members[0].schema, plans)
    bags = probe.admitted([delta.validated_items() for delta in members])
    return _effect(probe, bags)[1] if bags else {}


def compensate_answer(
    answer: Table,
    query: SPJQuery,
    alias: str,
    leaked: list[UpdateMessage],
    log: CompensationLog | None = None,
    extra_deltas: list[Delta] | None = None,
    plans: PlanCache | None = None,
) -> Table:
    """Subtract the effect of leaked updates from a probe answer.

    ``extra_deltas`` lets the caller compensate effects that are not UMQ
    messages — the self-join case where the update's own delta must be
    removed from probes of later occurrences of the same relation;
    ``plans`` is the world's plan cache.

    Only the deltas with a row the probe's IN-list admits are netted;
    with no effect, ``answer`` itself is returned — never mutate the
    returned table (docs/ALGORITHMS.md §Compensation).  If the probe
    cannot be evaluated over a schema's deltas (schema drift), every
    one of them is skipped and counted in the log, and none of their
    effect is applied — under Dyno's corrected orders this never
    happens (see tests), but baseline strategies that skip correction
    can hit it.
    """
    deltas: list[Delta] = [
        message.payload.delta  # type: ignore[union-attr]
        for message in leaked
    ]
    if extra_deltas:
        deltas.extend(extra_deltas)
    effects: list[dict[Row, int]] = []
    # An empty delta leaked nothing: it is neither evaluated nor skipped.
    for members in by_schema([d for d in deltas if not d.is_empty()]):
        try:
            effect = _admitted_effect(query, alias, members, plans)
        except RelationalError as exc:
            if log is not None:
                log.skipped_incompatible += len(members)
                log.notes.extend(
                    [f"skipped incompatible delta: {exc}"] * len(members)
                )
            continue
        if effect:
            effects.append(effect)
            if log is not None:
                log.compensated_tuples += sum(map(abs, effect.values()))
    if log is not None:
        log.compensated_queries += 1
    if not effects:
        return answer

    # One C-level copy (the cache shares answers); effects apply in place.
    corrected: Counter[Row] = Counter(answer._counts)
    touched: set[Row] = set()
    for effect in effects:
        for row, count in effect.items():
            corrected[row] = corrected.get(row, 0) - count
        touched.update(effect)

    # Rows came out of a validated table or the kernel: adopt them.  The
    # answer's counts are positive, so only a touched row can end <= 0
    # (docs/ALGORITHMS.md §Compensation); none negative: drop the zeros.
    spent = [row for row in touched if corrected[row] <= 0]
    if not any(corrected[row] for row in spent):
        for row in spent:
            del corrected[row]
        return Table.from_counts(answer.schema, corrected)
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
