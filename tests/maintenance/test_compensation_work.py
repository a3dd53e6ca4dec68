"""Compensation's work on a ``du_burst``-shaped world, pinned by count.

The spine's ``du_burst`` workload (a DU burst, the queue hundreds deep)
at tier-1 scale, seed 5: every probe answer is compensated for the
updates queued behind it, and almost none of those rows reach the
probe's IN-list.  The leaked updates handed to ``compensate_answer``
are pinned; of those answers, only the ones with an admitted leaked row
may reach the kernel (``BagProbe.parts``).
"""

from repro.core.strategies import PESSIMISTIC
from repro.experiments.testbed import build_testbed, make_du_workload
from tests.recorders import recorded_compensations

#: leaked updates handed to ``compensate_answer`` over the whole run
LEAKED = 8864


def test_only_answers_with_an_admitted_row_reach_the_kernel():
    testbed = build_testbed(PESSIMISTIC, tuples_per_relation=2000)
    testbed.engine.schedule_workload(
        make_du_workload(
            testbed.tuples_per_relation, 150, 0.05, 0.01, seed=5
        )
    )
    with recorded_compensations() as records:
        testbed.run()
    assert testbed.check_consistency()
    admitted = sum(1 for record in records if record["admitted"])
    evaluated = sum(1 for record in records if record["parts"])
    assert sum(record["leaked"] for record in records) == LEAKED
    assert 0 < admitted < len(records)
    assert evaluated == admitted
