"""The snapshot cache fold's work on a ``du_local``-shaped world, pinned
by count.

The spine's ``du_local`` workload (hot-key DUs with no concurrency, the
aux store over ``src1``, the snapshot cache over the rest) at tier-1
scale, seed 5: each cache hit folds the source's version gap into the
cached answer, and almost none of the gap's rows reach the probe's
IN-list.  The folds and the gap deltas handed to them are pinned; of
those folds, only the ones with an admitted gap row may reach the
kernel (``BagProbe.parts``), and none needs ``effect_on_answer`` (every
gap delta carries one sign).
"""

from repro.core.strategies import PESSIMISTIC
from repro.experiments.testbed import build_testbed, make_du_workload
from tests.recorders import recorded_folds

#: ``SnapshotCache._fold`` calls over the whole run
FOLDS = 315
#: gap deltas handed to those folds
GAP_DELTAS = 6184
#: folds with a gap row the probe admits
ADMITTED = 11


def test_only_folds_with_an_admitted_row_reach_the_kernel():
    testbed = build_testbed(
        PESSIMISTIC, tuples_per_relation=2000, snapshot_cache=True
    )
    store = testbed.manager.install_self_maintenance()
    store.seed_from_source(testbed.engine.sources["src1"])
    testbed.engine.schedule_workload(
        make_du_workload(
            testbed.tuples_per_relation, 400, 0.05, 2.0, key_domain=500,
            seed=5,
        )
    )
    with recorded_folds() as records:
        testbed.run()
    assert testbed.check_consistency()
    assert len(records) == FOLDS == testbed.engine.metrics.patched_answers
    assert sum(record["deltas"] for record in records) == GAP_DELTAS
    admitted = [record for record in records if record["admitted"]]
    assert len(admitted) == ADMITTED
    assert all(record["parts"] == 1 for record in admitted)
    assert sum(record["parts"] for record in records) == ADMITTED
    assert sum(record["effects"] for record in records) == 0
