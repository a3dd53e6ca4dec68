"""Recovery restores both local-answer stores through one loop with one
watermark filter: an entry survives iff its version stamp is at or
below its source's contiguous committed-update watermark."""

from repro.core.strategies import PESSIMISTIC
from repro.experiments.testbed import build_testbed
from repro.recovery import recover_in_place
from repro.relational.predicate import attr
from repro.relational.query import RelationRef, SPJQuery
from tests.builders import drain_events


def _scan(source: str, relation: str, column: str) -> SPJQuery:
    return SPJQuery(
        relations=(RelationRef(source, relation, relation),),
        projection=(attr(relation, column),),
    )


def _stamps(store) -> dict[tuple[str, str], int]:
    return {
        (source, key): version
        for source, key, version, _table in store.export_entries()
    }


def test_both_stores_restore_only_up_to_the_watermark():
    testbed = build_testbed(
        PESSIMISTIC,
        tuples_per_relation=20,
        snapshot_cache=True,
        journal=True,
        checkpoint_every=100,
    )
    engine = testbed.engine
    # Replicas of src1 only, so the other sources' probes travel and
    # fill the cache: both stores hold entries.
    aux = testbed.manager.install_self_maintenance()
    aux.seed_from_source(engine.sources["src1"])
    cache = engine.snapshot_cache
    engine.schedule_workload(
        testbed.random_du_workload(12, start=0.0, interval=0.01, seed=1)
    )
    testbed.run()
    maintained = {
        name: source.commit_version
        for name, source in engine.sources.items()
    }
    old_aux, old_cache = _stamps(aux), _stamps(cache)
    assert set(old_aux) == {("src1", "R1"), ("src1", "R2")}
    assert old_cache and all(source != "src1" for source, _ in old_cache)

    # More commits arrive but are not maintained (the scheduler never
    # runs), and one entry per store is rolled past them.
    engine.schedule_workload(
        testbed.random_du_workload(
            12, start=engine.clock.now + 0.01, interval=0.01, seed=2
        )
    )
    drain_events(engine)
    src1, src2 = engine.sources["src1"], engine.sources["src2"]
    assert src1.commit_version > maintained["src1"]
    assert src2.commit_version > maintained["src2"]
    column = aux.export_entries()[0][3].schema.attribute_names[0]
    assert aux.serve(src1, _scan("src1", "R1", column)) is not None
    fresh = _scan("src2", "R3", src2.schema_of("R3").attribute_names[0])
    cache.store(src2, fresh, src2.execute(fresh))
    assert _stamps(aux)[("src1", "R1")] > maintained["src1"]

    testbed.recovery.checkpoint()
    recover_in_place(testbed)
    report = testbed.crash_reports[-1]

    assert report.watermark == maintained
    assert report.local_restored == {"aux": 1, "cache": len(old_cache)}
    assert report.local_dropped == {"aux": 1, "cache": 1}
    assert _stamps(aux) == {("src1", "R2"): old_aux[("src1", "R2")]}
    assert _stamps(cache) == old_cache
    for store in engine.local_stores:
        for (source, _key), version in _stamps(store).items():
            assert version <= report.watermark[source]

    # The recovered warehouse maintains the pending commits correctly.
    testbed.run()
    assert testbed.check_consistency()
