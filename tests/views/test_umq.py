"""UMQ: queueing, the schema-change flag, reorder validation."""

import pytest

from repro.maintenance.history import SchemaHistory
from repro.relational.schema import RelationSchema
from repro.sources.messages import DataUpdate, DropAttribute, UpdateMessage
from repro.views.manager import _UMQView
from repro.views.umq import MaintenanceUnit, UMQError, UpdateMessageQueue
from tests.leak_oracle import (
    assert_index_consistent,
    bare_stack,
    messages_behind,
)

R = RelationSchema.of("R", ["a"])


def du(seqno: int) -> UpdateMessage:
    return UpdateMessage("s", seqno, float(seqno), DataUpdate.insert(R, []))


def sc(seqno: int) -> UpdateMessage:
    return UpdateMessage("s", seqno, float(seqno), DropAttribute("R", "a"))


class TestFlag:
    def test_du_does_not_raise_flag(self):
        umq = UpdateMessageQueue()
        umq.receive(du(1))
        assert not umq.new_schema_change_flag

    def test_sc_raises_flag(self):
        umq = UpdateMessageQueue()
        umq.receive(sc(1))
        assert umq.new_schema_change_flag

    def test_test_and_clear_is_atomic_read(self):
        umq = UpdateMessageQueue()
        umq.receive(sc(1))
        assert umq.test_and_clear_schema_change_flag()
        assert not umq.test_and_clear_schema_change_flag()


class TestQueueOps:
    def test_fifo(self):
        umq = UpdateMessageQueue()
        first, second = du(1), du(2)
        umq.receive(first)
        umq.receive(second)
        assert umq.head().head_message is first
        assert umq.remove_head().head_message is first
        assert umq.head().head_message is second

    def test_empty_errors(self):
        umq = UpdateMessageQueue()
        assert umq.is_empty()
        with pytest.raises(UMQError):
            umq.head()
        with pytest.raises(UMQError):
            umq.remove_head()

    def test_messages_flattens_units(self):
        umq = UpdateMessageQueue()
        a, b, c = du(1), du(2), sc(3)
        for message in (a, b, c):
            umq.receive(message)
        umq.replace_order([MaintenanceUnit([a, c]), MaintenanceUnit([b])])
        assert umq.messages() == [a, c, b]
        assert len(umq) == 2

    def test_position_of(self):
        umq = UpdateMessageQueue()
        a, b = du(1), du(2)
        umq.receive(a)
        umq.receive(b)
        assert [unit.messages for unit in umq.units] == [[a], [b]]
        assert_index_consistent(umq)

    def test_messages_behind(self):
        umq = UpdateMessageQueue()
        a, b, c = du(1), du(2), du(3)
        for message in (a, b, c):
            umq.receive(message)
        head = umq.head()
        assert messages_behind(umq, head) == [b, c]
        assert umq.data_updates_behind(head, "s", ["R"]) == [b, c]
        assert umq.data_updates_behind(head, "s", ["T"]) == []
        assert umq.data_updates_behind(head, "other", ["R"]) == []
        # committed no later than the answer was evaluated, inclusive
        facade = _UMQView(bare_stack(umq), SchemaHistory(), head, [])
        assert facade.leaked(head, "s", "R", answered_at=2.0) == [b]

    def test_messages_behind_unknown_unit(self):
        umq = UpdateMessageQueue()
        umq.receive(du(1))
        stranger = MaintenanceUnit([du(9)])
        with pytest.raises(UMQError):
            messages_behind(umq, stranger)
        with pytest.raises(UMQError):
            umq.data_updates_behind(stranger, "s", ["R"])


class TestReorder:
    def test_replace_order_preserving(self):
        umq = UpdateMessageQueue()
        a, b = du(1), sc(2)
        umq.receive(a)
        umq.receive(b)
        umq.replace_order([MaintenanceUnit([b]), MaintenanceUnit([a])])
        assert umq.head().head_message is b

    def test_replace_order_losing_message_rejected(self):
        umq = UpdateMessageQueue()
        a, b = du(1), du(2)
        umq.receive(a)
        umq.receive(b)
        with pytest.raises(UMQError):
            umq.replace_order([MaintenanceUnit([a])])

    def test_replace_order_inventing_message_rejected(self):
        umq = UpdateMessageQueue()
        a = du(1)
        umq.receive(a)
        with pytest.raises(UMQError):
            umq.replace_order(
                [MaintenanceUnit([a]), MaintenanceUnit([du(9)])]
            )


class _Recorder:
    """UMQListener that logs every notification in order."""

    def __init__(self):
        self.events = []

    def umq_received(self, message):
        self.events.append(("received", message))

    def umq_removed_head(self, unit):
        self.events.append(("removed_head", unit))

    def umq_reordered(self, units):
        self.events.append(("reordered", tuple(units)))

    def umq_removed_unit(self, unit, index):
        self.events.append(("removed_unit", unit, index))

    def umq_requeued_front(self, unit):
        self.events.append(("requeued_front", unit))


class TestListeners:
    def _queue(self, count=3):
        umq = UpdateMessageQueue()
        messages = [du(seqno) for seqno in range(1, count + 1)]
        for message in messages:
            umq.receive(message)
        recorder = _Recorder()
        umq.add_listener(recorder)
        return umq, messages, recorder

    def test_receive_notifies_with_message(self):
        umq, _, recorder = self._queue(0)
        message = du(1)
        umq.receive(message)
        assert recorder.events == [("received", message)]

    def test_remove_head_notifies_with_unit(self):
        umq, _, recorder = self._queue(2)
        unit = umq.remove_head()
        assert recorder.events == [("removed_head", unit)]

    def test_remove_unit_mid_queue_notifies_with_vacated_index(self):
        umq, messages, recorder = self._queue(3)
        middle = umq.units[1]
        umq.remove_unit(middle)
        assert recorder.events == [("removed_unit", middle, 1)]
        # Survivors keep consistent positions and flat-message cache.
        assert umq.messages() == [messages[0], messages[2]]
        assert [unit.messages for unit in umq.units] == [
            [messages[0]],
            [messages[2]],
        ]
        assert_index_consistent(umq)

    def test_remove_unit_at_head_fires_head_event(self):
        umq, _, recorder = self._queue(2)
        head = umq.units[0]
        umq.remove_unit(head)
        # Head-position removal takes the O(1) path and reports itself
        # as a head removal, not a mid-queue one.
        assert recorder.events == [("removed_head", head)]

    def test_remove_unknown_unit_fires_nothing(self):
        umq, _, recorder = self._queue(1)
        with pytest.raises(UMQError):
            umq.remove_unit(MaintenanceUnit([du(9)]))
        assert recorder.events == []

    def test_requeue_front_notifies_and_restores_positions(self):
        umq, messages, recorder = self._queue(3)
        middle = umq.units[1]
        umq.remove_unit(middle)
        umq.requeue_front(middle)
        assert recorder.events == [
            ("removed_unit", middle, 1),
            ("requeued_front", middle),
        ]
        assert umq.head() is middle
        assert umq.messages() == [messages[1], messages[0], messages[2]]
        assert [unit.messages for unit in umq.units] == [
            [messages[1]],
            [messages[0]],
            [messages[2]],
        ]
        assert messages_behind(umq, middle) == [messages[0], messages[2]]
        assert umq.data_updates_behind(middle, "s", ["R"]) == [
            messages[0],
            messages[2],
        ]
        assert_index_consistent(umq)

    def test_requeue_of_queued_messages_rejected_without_event(self):
        umq, _, recorder = self._queue(1)
        with pytest.raises(UMQError):
            umq.requeue_front(umq.units[0])
        assert recorder.events == []

    def test_requeue_does_not_count_as_arrival(self):
        umq, _, _ = self._queue(2)
        unit = umq.remove_head()
        received_before = umq.received_messages
        umq.requeue_front(unit)
        assert umq.received_messages == received_before
        assert not umq.new_schema_change_flag

    def test_removed_listener_stops_receiving(self):
        umq, _, recorder = self._queue(1)
        umq.remove_listener(recorder)
        umq.receive(du(5))
        umq.remove_head()
        assert recorder.events == []

    def test_add_listener_is_idempotent(self):
        umq, _, recorder = self._queue(0)
        umq.add_listener(recorder)  # second registration is a no-op
        umq.receive(du(1))
        assert len(recorder.events) == 1


class TestMaintenanceUnit:
    def test_single(self):
        unit = MaintenanceUnit.single(du(1))
        assert not unit.is_batch
        assert not unit.has_schema_change
        assert len(unit) == 1

    def test_merged(self):
        unit = MaintenanceUnit.merged(
            [MaintenanceUnit([du(1)]), MaintenanceUnit([sc(2)])]
        )
        assert unit.is_batch
        assert unit.has_schema_change
        assert [m.seqno for m in unit] == [1, 2]

    def test_describe_batch(self):
        unit = MaintenanceUnit([du(1), sc(2)])
        assert unit.describe().startswith("BATCH[")

    def test_received_counter(self):
        umq = UpdateMessageQueue()
        umq.receive(du(1))
        umq.receive(sc(2))
        assert umq.received_messages == 2
