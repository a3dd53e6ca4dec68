"""Anomaly taxonomy of Section 3.1.  The scheduler records a broken
query's type by the unit whose maintenance broke: type 3 for a data
update's, type 4 for a schema change's."""

from repro.core.anomalies import AnomalyType
from repro.core.scheduler import DynoScheduler
from repro.relational.schema import RelationSchema
from repro.sources.messages import (
    DataUpdate,
    DropAttribute,
    UpdateMessage,
)
from repro.views.umq import MaintenanceUnit
from tests.builders import free_cost_model
from tests.conftest import build_bookstore

R = RelationSchema.of("R", ["a"])


def du() -> UpdateMessage:
    return UpdateMessage("s", 1, 0.0, DataUpdate.insert(R, [("x",)]))


def sc() -> UpdateMessage:
    return UpdateMessage("s", 2, 0.0, DropAttribute("R", "a"))


def recorded_on_abort(message: UpdateMessage) -> dict:
    """The anomaly counts after ``M(message)`` aborts once."""
    _engine, stack = build_bookstore(free_cost_model())
    [manager] = stack.view_managers()
    DynoScheduler(stack)._record_abort(MaintenanceUnit([message]), 0.0)
    return {kind: n for kind, n in manager.metrics.anomalies.items() if n}


class TestClassify:
    def test_type_3(self):
        assert recorded_on_abort(du()) == {
            AnomalyType.SC_CONFLICTS_WITH_M_DU: 1
        }

    def test_type_4(self):
        assert recorded_on_abort(sc()) == {
            AnomalyType.SC_CONFLICTS_WITH_M_SC: 1
        }


class TestProperties:
    def test_enum_values_match_paper_numbering(self):
        assert AnomalyType.DU_CONFLICTS_WITH_M_DU.value == 1
        assert AnomalyType.DU_CONFLICTS_WITH_M_SC.value == 2
        assert AnomalyType.SC_CONFLICTS_WITH_M_DU.value == 3
        assert AnomalyType.SC_CONFLICTS_WITH_M_SC.value == 4
