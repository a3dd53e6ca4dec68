"""The Update Message Queue (UMQ).

The UMQ buffers committed source updates awaiting maintenance.  Its
entries are :class:`MaintenanceUnit` objects — normally one update each,
but dependency correction can merge several updates into one *batch
unit* that is maintained atomically (Section 4.2: cycles in the
dependency graph cannot be aborted, so their updates are processed in
one batch).

The UMQ also owns the ``NewSchemaChangeFlag`` of Figure 6/7: the
UMQ-manager side sets it when a schema change arrives, and the Dyno loop
atomically tests-and-clears it to decide whether detection can be
skipped.

Hot-path layout: the unit store is a deque (O(1) ``remove_head``), the
flat message list is cached and patched on mutation instead of being
rebuilt per call, and a unit's position resolves through identity
maps plus a monotone base offset instead of scanning.  The queued data
updates are also bucketed by ``(source, relation as committed)``, each
bucket in queue order, so the question every maintenance probe asks —
which queued updates leaked into this answer
(:meth:`UpdateMessageQueue.data_updates_behind`) — costs the bucket, not
the queue.  All of it is derived state kept by the five mutators
(``receive``, ``remove_head``, ``remove_unit``, ``requeue_front``,
``replace_order``): nothing of it is checkpointed, whatever refills the
queue rebuilds it.  Observers (the incremental detection substrate)
register as *mutation listeners* and are notified after every
structural change.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Iterable, Iterator, Protocol

from ..relational.errors import ReproError
from ..sources.messages import UpdateMessage

#: slack on "committed no later than the answer was evaluated": an
#: update leaked into an answer iff ``committed_at <= answered_at +
#: COMMIT_EPSILON`` (one committed *after* evaluation, e.g. during the
#: result transfer, did not affect the answer and is not compensated)
COMMIT_EPSILON = 1e-12


class UMQError(ReproError):
    """The UMQ was manipulated inconsistently."""


@dataclass
class MaintenanceUnit:
    """One schedulable maintenance task: a single update or a batch.

    Messages inside a batch keep their arrival order so that per-source
    preprocessing (Section 5) can combine them respecting commit order.
    """

    messages: list[UpdateMessage] = field(default_factory=list)

    @classmethod
    def single(cls, message: UpdateMessage) -> "MaintenanceUnit":
        return cls([message])

    @classmethod
    def merged(cls, units: Iterable["MaintenanceUnit"]) -> "MaintenanceUnit":
        messages: list[UpdateMessage] = []
        for unit in units:
            messages.extend(unit.messages)
        return cls(messages)

    @property
    def is_batch(self) -> bool:
        return len(self.messages) > 1

    @property
    def has_schema_change(self) -> bool:
        return any(message.is_schema_change for message in self.messages)

    @property
    def head_message(self) -> UpdateMessage:
        return self.messages[0]

    def describe(self) -> str:
        if not self.is_batch:
            return self.messages[0].describe()
        inner = "; ".join(message.describe() for message in self.messages)
        return f"BATCH[{inner}]"

    def __len__(self) -> int:
        return len(self.messages)

    def __iter__(self) -> Iterator[UpdateMessage]:
        return iter(self.messages)


def _by_relation(
    messages: Iterable[UpdateMessage],
) -> dict[tuple[str, str], list[UpdateMessage]]:
    """The data updates among ``messages`` per ``(source, relation as
    committed)``, each list in the order given."""
    buckets: dict[tuple[str, str], list[UpdateMessage]] = {}
    for message in messages:
        if message.is_data_update:
            key = (message.source, message.payload.relation)
            buckets.setdefault(key, []).append(message)
    return buckets


class UMQListener(Protocol):
    """Observer of UMQ structural mutations (notified *after* each)."""

    def umq_received(self, message: UpdateMessage) -> None: ...

    def umq_removed_head(self, unit: MaintenanceUnit) -> None: ...

    def umq_reordered(self, units: list[MaintenanceUnit]) -> None: ...

    def umq_removed_unit(
        self, unit: MaintenanceUnit, index: int
    ) -> None: ...

    def umq_requeued_front(self, unit: MaintenanceUnit) -> None: ...


class UpdateMessageQueue:
    """FIFO of maintenance units with reorder support."""

    def __init__(self) -> None:
        self._units: deque[MaintenanceUnit] = deque()
        self.new_schema_change_flag = False
        self.received_messages = 0
        self._listeners: list[UMQListener] = []
        # -- O(1) lookup bookkeeping -----------------------------------
        #: flat message list, patched incrementally (None = rebuild)
        self._messages_cache: list[UpdateMessage] | None = []
        #: id(unit) -> absolute position (monotone; queue index =
        #: absolute - base)
        self._unit_pos: dict[int, int] = {}
        #: id(message) -> owning unit
        self._owner: dict[int, MaintenanceUnit] = {}
        #: absolute position of the current head
        self._base = 0
        #: (source, relation as committed) -> queued data updates, in
        #: queue order
        self._data_updates: dict[tuple[str, str], list[UpdateMessage]] = {}

    # ------------------------------------------------------------------
    # listeners
    # ------------------------------------------------------------------

    def add_listener(self, listener: UMQListener) -> None:
        if listener not in self._listeners:
            self._listeners.append(listener)

    def remove_listener(self, listener: UMQListener) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    # ------------------------------------------------------------------
    # UMQ manager side (Figure 7)
    # ------------------------------------------------------------------

    def receive(self, message: UpdateMessage) -> None:
        """Enqueue a newly arrived update; flag schema changes."""
        unit = MaintenanceUnit.single(message)
        self._units.append(unit)
        self._unit_pos[id(unit)] = self._base + len(self._units) - 1
        self._owner[id(message)] = unit
        if self._messages_cache is not None:
            self._messages_cache.append(message)
        self.received_messages += 1
        if message.is_schema_change:
            self.new_schema_change_flag = True
        for key, arrived in _by_relation(unit).items():
            self._data_updates.setdefault(key, []).extend(arrived)
        for listener in self._listeners:
            listener.umq_received(message)

    def test_and_clear_schema_change_flag(self) -> bool:
        """The atomic ``Test_If_True_Set_False`` of Figure 6, line 1."""
        was_set = self.new_schema_change_flag
        self.new_schema_change_flag = False
        return was_set

    # ------------------------------------------------------------------
    # Dyno side
    # ------------------------------------------------------------------

    def is_empty(self) -> bool:
        return not self._units

    def __len__(self) -> int:
        return len(self._units)

    @property
    def units(self) -> tuple[MaintenanceUnit, ...]:
        return tuple(self._units)

    def messages(self) -> list[UpdateMessage]:
        if self._messages_cache is None:
            self._messages_cache = [
                message for unit in self._units for message in unit
            ]
        return list(self._messages_cache)

    def head(self) -> MaintenanceUnit:
        if not self._units:
            raise UMQError("UMQ is empty")
        return self._units[0]

    def remove_head(self) -> MaintenanceUnit:
        if not self._units:
            raise UMQError("UMQ is empty")
        unit = self._units.popleft()
        self._base += 1
        self._unit_pos.pop(id(unit), None)
        for message in unit:
            self._owner.pop(id(message), None)
        if self._messages_cache is not None:
            del self._messages_cache[: len(unit)]
        # Buckets are in queue order: the head's updates lead theirs.
        for key, gone in _by_relation(unit).items():
            del self._data_updates[key][: len(gone)]
        for listener in self._listeners:
            listener.umq_removed_head(unit)
        return unit

    def remove_unit(self, unit: MaintenanceUnit) -> MaintenanceUnit:
        """Remove ``unit`` from any queue position (parallel dispatch).

        Head removal keeps the O(1) fast path (and fires the head
        listener event); mid-queue removal rebuilds the position maps in
        O(n) and fires ``umq_removed_unit`` with the vacated index.
        """
        absolute = self._unit_pos.get(id(unit))
        if absolute is None:
            raise UMQError("unit not in UMQ")
        index = absolute - self._base
        if index == 0:
            return self.remove_head()
        before = sum(
            len(earlier) for earlier in islice(self._units, 0, index)
        )
        del self._units[index]
        self._unit_pos.pop(id(unit), None)
        for message in unit:
            self._owner.pop(id(message), None)
        if self._messages_cache is not None:
            del self._messages_cache[before : before + len(unit)]
        for key, gone in _by_relation(unit).items():
            # By identity: a message compares by value.
            mine = set(map(id, gone))
            self._data_updates[key][:] = [
                message
                for message in self._data_updates[key]
                if id(message) not in mine
            ]
        # Positions after the gap all shift down by one.
        self._unit_pos = {
            id(survivor): self._base + position
            for position, survivor in enumerate(self._units)
        }
        for listener in self._listeners:
            listener.umq_removed_unit(unit, index)
        return unit

    def requeue_front(self, unit: MaintenanceUnit) -> None:
        """Put a previously removed unit back at the head (abort path).

        The unit's messages must not currently be queued; the
        schema-change flag and arrival counters are untouched (this is a
        re-admission, not a new arrival).
        """
        for message in unit:
            if id(message) in self._owner:
                raise UMQError(
                    "requeued unit's messages are already queued"
                )
        self._units.appendleft(unit)
        self._base -= 1
        self._unit_pos[id(unit)] = self._base
        for message in unit:
            self._owner[id(message)] = unit
        if self._messages_cache is not None:
            self._messages_cache[:0] = unit.messages
        for key, back in _by_relation(unit).items():
            self._data_updates.setdefault(key, [])[:0] = back
        for listener in self._listeners:
            listener.umq_requeued_front(unit)

    def data_updates_behind(
        self,
        unit: MaintenanceUnit,
        source: str,
        relations: Iterable[str],
        committed_by: float = math.inf,
    ) -> list[UpdateMessage]:
        """Queued data updates of ``source`` committed under any of the
        names ``relations`` no later than ``committed_by``, in units
        strictly after ``unit``, in queue order (a fresh list).  Costs
        the buckets asked for, not the queue."""
        absolute = self._unit_pos.get(id(unit))
        if absolute is None:
            raise UMQError("unit not in UMQ")
        owner, position = self._owner, self._unit_pos
        runs: list[Iterable[UpdateMessage]] = []
        for relation in relations:
            bucket = self._data_updates.get((source, relation), ())
            # Queue order: what is not behind ``unit`` leads the bucket.
            for skip, message in enumerate(bucket):
                if position[id(owner[id(message)])] > absolute:
                    runs.append(islice(bucket, skip, None))
                    break
        if len(runs) > 1:
            # One relation queued under several names (a rename overtook
            # updates committed before it): interleave by queue position.
            runs = [sorted(chain.from_iterable(runs), key=self._queue_rank)]
        return [
            message
            for run in runs
            for message in run
            if message.committed_at <= committed_by
        ]

    def _queue_rank(self, message: UpdateMessage) -> tuple[int, int]:
        unit = self._owner[id(message)]
        within = next(
            index for index, member in enumerate(unit) if member is message
        )
        return self._unit_pos[id(unit)], within

    def replace_order(self, units: list[MaintenanceUnit]) -> None:
        """Install a corrected order; the message multiset must match."""
        current = Counter(id(message) for message in self.messages())
        proposed = Counter(
            id(message) for unit in units for message in unit
        )
        if current != proposed:
            raise UMQError(
                "corrected order does not preserve the queued messages"
            )
        self._units = deque(units)
        self._base = 0
        self._messages_cache = None
        self._unit_pos = {
            id(unit): index for index, unit in enumerate(units)
        }
        self._owner = {
            id(message): unit for unit in units for message in unit
        }
        self._data_updates = _by_relation(
            message for unit in units for message in unit
        )
        for listener in self._listeners:
            listener.umq_reordered(list(units))

    def __repr__(self) -> str:
        return f"UMQ({len(self._units)} units)"
