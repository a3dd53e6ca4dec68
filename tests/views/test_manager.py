"""The view manager: initial load, oracle, maintenance dispatch."""

import pytest

from repro.sim.costs import CostModel
from repro.maintenance.grouping import coalesce_data_updates
from repro.recovery.codec import delta_to_json
from repro.sources.messages import (
    DataUpdate,
    DropAttribute,
    RenameAttribute,
    RenameRelation,
)
from repro.views.umq import MaintenanceUnit
from tests.builders import free_cost_model
from tests.conftest import CATALOG_SCHEMA, ITEM_SCHEMA, build_bookstore


class TestInitialLoad:
    def test_initial_extent_matches_recompute(self):
        engine, manager = build_bookstore(free_cost_model())
        assert manager.mv.extent == manager.recompute_reference()
        assert len(manager.mv.extent) == 2
        assert manager.mv.refresh_count == 0

    def test_wrappers_feed_umq(self):
        engine, manager = build_bookstore(free_cost_model())
        engine.source("retailer").commit(
            DataUpdate.insert(ITEM_SCHEMA, [(9, "X", "Y", 1.0)]), at=0.0
        )
        assert len(manager.umq) == 1

    def test_schema_lookup(self):
        engine, manager = build_bookstore(free_cost_model())
        schema = manager._schema_lookup("retailer", "Item")
        assert schema is not None and "Book" in schema
        assert manager._schema_lookup("retailer", "Nope") is None
        assert manager._schema_lookup("ghost", "Item") is None


class TestDataUnitMaintenance:
    def test_du_unit_refreshes_view(self):
        engine, manager = build_bookstore(free_cost_model())
        engine.source("retailer").commit(
            DataUpdate.insert(
                ITEM_SCHEMA, [(1, "Databases", "Again", 9.0)]
            ),
            at=0.0,
        )
        unit = manager.umq.head()
        engine.run_process(manager.build_maintenance(unit))
        assert manager.mv.extent == manager.recompute_reference()
        assert engine.metrics.view_refreshes == 1
        assert engine.metrics.maintained_updates == 1

    def test_irrelevant_du_no_refresh(self):
        engine, manager = build_bookstore(free_cost_model())
        reader = engine.source("digest").schema_of("ReaderDigest")
        engine.source("digest").commit(
            DataUpdate.insert(reader, [("A", "B")]), at=0.0
        )
        unit = manager.umq.head()
        engine.run_process(manager.build_maintenance(unit))
        assert engine.metrics.view_refreshes == 0
        assert engine.metrics.maintained_updates == 1


class TestSchemaUnitMaintenance:
    def test_sc_unit_installs_definition_and_extent(self):
        engine, manager = build_bookstore(free_cost_model())
        engine.source("library").commit(
            DropAttribute("Catalog", "Review"), at=0.0
        )
        unit = manager.umq.head()
        engine.run_process(manager.build_maintenance(unit))
        assert manager.view.version == 2
        assert manager.mv.definition_version == 2
        assert manager.mv.extent == manager.recompute_reference()

    def test_view_untouched_on_abort(self):
        engine, manager = build_bookstore(CostModel(query_base=1.0))
        engine.source("library").commit(
            DropAttribute("Catalog", "Review"), at=0.0
        )
        # break the adaptation mid-flight
        engine.schedule(
            3.5,
            lambda: engine.source("retailer").commit(
                RenameRelation("Item", "Item2"), at=3.5
            ),
        )
        unit = manager.umq.head()
        from repro.sources.errors import BrokenQueryError

        before_rows = len(manager.mv.extent)
        with pytest.raises(BrokenQueryError):
            engine.run_process(manager.build_maintenance(unit))
        assert manager.view.version == 1  # w(VD) stayed in-memory
        assert len(manager.mv.extent) == before_rows

    def test_non_conflicting_sc_is_cheap_noop(self):
        engine, manager = build_bookstore(free_cost_model())
        engine.source("library").commit(
            DropAttribute("Catalog", "Author"), at=0.0
        )
        unit = manager.umq.head()
        engine.run_process(manager.build_maintenance(unit))
        assert manager.view.version == 1
        assert engine.metrics.maintained_updates == 1

    def test_batch_with_noop_sc_still_maintains_dus(self):
        engine, manager = build_bookstore(free_cost_model())
        source = engine.source("retailer")
        source.commit(
            DataUpdate.insert(ITEM_SCHEMA, [(1, "Databases", "Z", 3.0)]),
            at=0.0,
        )
        engine.source("library").commit(
            DropAttribute("Catalog", "Author"), at=0.0
        )
        messages = manager.umq.messages()
        manager.umq.replace_order([MaintenanceUnit(list(messages))])
        unit = manager.umq.head()
        engine.run_process(manager.build_maintenance(unit))
        assert manager.mv.extent == manager.recompute_reference()
        assert engine.metrics.maintained_updates == 2

    def test_batch_du_and_sc(self):
        engine, manager = build_bookstore(free_cost_model())
        engine.source("retailer").commit(
            DataUpdate.insert(ITEM_SCHEMA, [(1, "Databases", "Z", 3.0)]),
            at=0.0,
        )
        engine.source("library").commit(
            DropAttribute("Catalog", "Review"), at=0.0
        )
        messages = manager.umq.messages()
        manager.umq.replace_order([MaintenanceUnit(list(messages))])
        engine.run_process(manager.build_maintenance(manager.umq.head()))
        assert manager.view.version == 2
        assert manager.mv.extent == manager.recompute_reference()


class TestSharedTranslations:
    """A translated message comes out of the schema history's memo and
    is shared by every probe it leaks into and by the unit that finally
    maintains it: whoever is handed one builds new deltas."""

    def test_stale_batch_is_maintained_without_touching_a_payload(self):
        engine, manager = build_bookstore(free_cost_model())
        retailer = engine.source("retailer")
        retailer.commit(RenameAttribute("Item", "Price", "Cost"), at=0.0)
        engine.run_process(manager.build_maintenance(manager.umq.head()))
        manager.umq.remove_head()
        # Two updates still speaking the layout from before the rename
        # (a source applies a delta by position), one that needs no
        # translation; maintained as one batch.
        for author in ("Y", "Z"):
            retailer.commit(
                DataUpdate.insert(
                    ITEM_SCHEMA, [(1, "Databases", author, 3.0)]
                ),
                at=0.0,
            )
        engine.source("library").commit(
            DataUpdate.insert(
                CATALOG_SCHEMA, [("Compilers", "Aho", "CS", "AW", "again")]
            ),
            at=0.0,
        )
        batch = MaintenanceUnit.merged(manager.umq.units)
        manager.umq.replace_order([batch])

        history = manager.schema_history
        translated = [history.translate_message(m) for m in batch]
        assert [t is m for t, m in zip(translated, batch)] == [
            False, False, True,
        ]
        assert "Cost" in translated[0].payload.delta.schema
        handed = [delta_to_json(t.payload.delta) for t in translated]
        raw = [delta_to_json(m.payload.delta) for m in batch]

        merged = coalesce_data_updates(translated)
        assert len(merged) == 2 and merged[0].payload.delta.net_size() == 2
        assert all(
            merged[0].payload.delta is not t.payload.delta
            for t in translated
        )
        engine.run_process(manager.build_maintenance(batch))
        assert manager.mv.extent == manager.recompute_reference()

        # the same shared objects, as they were handed out
        again = [history.translate_message(m) for m in batch]
        assert [id(t) for t in again] == [id(t) for t in translated]
        assert [delta_to_json(t.payload.delta) for t in again] == handed
        assert [delta_to_json(m.payload.delta) for m in batch] == raw


class TestSpeculativeQueries:
    """Detection asks VS what a queued schema change would do to the
    view.  Only VS's documented "cannot repair" may answer "no
    rewrite"; anything else swallowed here would be a stale footprint
    and a missed dependency, paid for later as an abort."""

    class _Failing:
        def __init__(self, error):
            self.error = error

        def synchronize(self, view, message):
            raise self.error

    def _message(self, engine):
        return engine.source("library").commit(
            DropAttribute("Catalog", "Review"), at=0.0
        )

    def test_cannot_repair_means_no_rewrite(self):
        from repro.maintenance.vs import ViewSynchronizationError

        engine, manager = build_bookstore(free_cost_model())
        manager.synchronizer = self._Failing(
            ViewSynchronizationError("no replacement")
        )
        assert manager.speculative_queries(self._message(engine)) == (
            manager.view.query,
        )

    def test_any_other_error_propagates(self):
        engine, manager = build_bookstore(free_cost_model())
        manager.synchronizer = self._Failing(RuntimeError("a bug in VS"))
        with pytest.raises(RuntimeError, match="a bug in VS"):
            manager.speculative_queries(self._message(engine))


class TestConnect:
    def test_late_source_joins(self):
        from repro.relational.schema import RelationSchema
        from repro.sources.source import DataSource

        engine, manager = build_bookstore(free_cost_model())
        newcomer = DataSource("late")
        newcomer.create_relation(RelationSchema.of("Extra", ["a"]))
        manager.connect(newcomer)
        newcomer.commit(
            DataUpdate.insert(newcomer.schema_of("Extra"), [("v",)]), at=0.0
        )
        assert len(manager.umq) == 1
