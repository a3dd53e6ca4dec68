"""The extend-on-add view-extension policy."""

from repro.core.scheduler import DynoScheduler
from repro.core.strategies import PESSIMISTIC
from repro.maintenance.vs import ViewSynchronizer
from repro.relational.predicate import attr
from repro.relational.schema import Attribute
from repro.sources.messages import AddAttribute, UpdateMessage
from repro.sources.workload import FixedUpdate, Workload
from repro.views.definition import ViewDefinition
from tests.builders import free_cost_model
from tests.conftest import bookinfo_query, build_bookstore


def message(source, payload) -> UpdateMessage:
    return UpdateMessage(source, 1, 0.0, payload)


class TestPolicyOff:
    def test_default_ignores_additions(self):
        synchronizer = ViewSynchronizer()
        view = ViewDefinition("V", bookinfo_query())
        result = synchronizer.synchronize(
            view,
            message("library", AddAttribute("Catalog", Attribute("Year"))),
        )
        assert not result.report.changed


class TestPolicyOn:
    def test_projection_extended(self):
        synchronizer = ViewSynchronizer(extend_on_add=True)
        view = ViewDefinition("V", bookinfo_query())
        result = synchronizer.synchronize(
            view,
            message("library", AddAttribute("Catalog", Attribute("Year"))),
        )
        assert result.report.changed
        assert attr("C", "Year") in result.definition.query.projection

    def test_unrelated_relation_untouched(self):
        synchronizer = ViewSynchronizer(extend_on_add=True)
        view = ViewDefinition("V", bookinfo_query())
        result = synchronizer.synchronize(
            view,
            message("library", AddAttribute("Other", Attribute("Year"))),
        )
        assert not result.report.changed

    def test_duplicate_add_is_idempotent(self):
        synchronizer = ViewSynchronizer(extend_on_add=True)
        view = ViewDefinition("V", bookinfo_query())
        once = synchronizer.synchronize(
            view,
            message("library", AddAttribute("Catalog", Attribute("Year"))),
        ).definition
        twice = synchronizer.synchronize(
            once,
            message("library", AddAttribute("Catalog", Attribute("Year"))),
        )
        count = sum(
            1
            for ref in twice.definition.query.projection
            if ref == attr("C", "Year")
        )
        assert count == 1


class TestEndToEnd:
    def test_extension_flows_through_adaptation(self):
        engine, manager = build_bookstore(free_cost_model())
        manager.synchronizer.extend_on_add = True
        workload = Workload()
        workload.add(
            0.0,
            "library",
            FixedUpdate(
                AddAttribute("Catalog", Attribute("Year"), "2004")
            ),
        )
        engine.schedule_workload(workload)
        DynoScheduler(manager, PESSIMISTIC).run()
        assert manager.view.version == 2
        assert manager.mv.extent.schema.arity == 8  # 7 + Year
        assert all("2004" in row for row in manager.mv.extent.rows())
        assert manager.mv.extent == manager.recompute_reference()
