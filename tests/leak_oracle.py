"""The linear leak scan, kept as the specification of the indexed one.

Until the UMQ bucketed its data updates, every maintenance probe found
the updates that leaked into its answer by flattening the whole queue
tail, translating *every* pending data update through the schema history
and only then filtering by ``(source, relation, committed_at)``.  That
path is verbatim below; ``UpdateMessageQueue.data_updates_behind`` and
the view manager's ``_UMQView.leaked`` are held equal to it (same
messages modulo translation, same order) by
``tests/property/test_leak_lookup.py``.
"""

from __future__ import annotations

from itertools import islice
from types import SimpleNamespace

from repro.relational.delta import Delta
from repro.relational.schema import RelationSchema
from repro.sources.messages import DataUpdate, UpdateMessage
from repro.views.umq import (
    COMMIT_EPSILON,
    MaintenanceUnit,
    UMQError,
    UpdateMessageQueue,
)


def messages_behind(
    umq: UpdateMessageQueue, unit: MaintenanceUnit
) -> list[UpdateMessage]:
    """All messages in units strictly after ``unit``."""
    units = list(umq.units)
    for index, queued in enumerate(units):
        if queued is unit:
            break
    else:
        raise UMQError("unit not in UMQ")
    return [
        message
        for later in islice(units, index + 1, None)
        for message in later
    ]


def translated(history, message: UpdateMessage) -> UpdateMessage | None:
    """``message`` through the schema history, nothing remembered."""
    if history.is_empty():
        return message
    payload = history.translate_data_update(message.source, message.payload)
    if payload is None:
        return None
    if payload is message.payload:
        return message
    return UpdateMessage(
        message.source, message.seqno, message.committed_at, payload
    )


def facade_messages_behind(
    stack, history, unit: MaintenanceUnit, extra=(), pending_feed=None
) -> list[UpdateMessage]:
    """Everything pending behind ``unit`` as the view manager's facade
    used to report it: in-unit extras, the queue tail (or the parallel
    worker's overlay), the wrappers' in-flight messages — every data
    update translated, the ones on a dropped relation gone."""
    behind = (
        pending_feed()
        if pending_feed is not None
        else messages_behind(stack.umq, unit)
    )
    pending = list(extra) + behind + stack.in_flight_messages()
    if history.is_empty():
        return pending
    mapped = []
    for message in pending:
        if not message.is_data_update:
            mapped.append(message)
            continue
        current = translated(history, message)
        if current is not None:
            mapped.append(current)
    return mapped


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


def leaked_behind_head(
    behind: list[UpdateMessage],
    source: str,
    relation: str,
    answered_at: float,
) -> list[UpdateMessage]:
    """The queue's own answer with ``behind`` queued after a head unit,
    held to the scan over the same messages."""
    umq = UpdateMessageQueue()
    head = DataUpdate("Head", Delta(RelationSchema.of("Head", ["h"])))
    umq.receive(UpdateMessage(source, 0, 0.0, head))
    for message in behind:
        umq.receive(message)
    leaked = [
        message
        for message in umq.data_updates_behind(umq.head(), source, (relation,))
        if message.committed_at <= answered_at + COMMIT_EPSILON
    ]
    scanned = pending_data_updates(behind, source, relation, answered_at)
    assert [id(m) for m in leaked] == [id(m) for m in scanned]
    return leaked


def bare_stack(umq, in_flight=list) -> SimpleNamespace:
    """All of a stack that a view's ``_UMQView`` facade reads."""
    return SimpleNamespace(umq=umq, in_flight_messages=in_flight)


def assert_index_consistent(umq: UpdateMessageQueue) -> None:
    """The buckets hold exactly the queued data updates, each bucket in
    queue order, and the identity maps cover exactly the queue."""
    expected: dict[tuple[str, str], list[int]] = {}
    for message in umq.messages():
        if message.is_data_update:
            key = (message.source, message.payload.relation)
            expected.setdefault(key, []).append(id(message))
    actual = {
        key: [id(message) for message in bucket]
        for key, bucket in umq._data_updates.items()
        if bucket
    }
    assert actual == expected
    assert set(umq._owner) == {id(message) for message in umq.messages()}
    assert [
        umq._unit_pos[id(umq._owner[id(message)])] - umq._base
        for unit in umq.units
        for message in unit
    ] == [index for index, unit in enumerate(umq.units) for _ in unit]
