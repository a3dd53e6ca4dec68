"""The live substrate against the from-scratch oracle on the queues ABL-2
and ABL-5 time, at their quick shapes.

ABL-5 checks this identity itself, but only where the ablation bench
runs; here it holds in every tier-1 run: the substrate's edge set
(``dependencies()``) and legal order (``detection().groups``) equal
``tests/detection_oracle.py``'s over the same queue.
"""

import inspect

import pytest

from benchmarks.bench_ablations import ABL_2, ABL_5
from repro.core.incremental import IncrementalDependencyGraph
from repro.experiments.testbed import full_join_query
from repro.views.umq import UpdateMessageQueue
from tests.detection_oracle import detect, dropped, edge_set, synthetic_queue

QUERY = full_join_query()
#: ABL-2's ``edges`` series at its quick sizes
ABL_2_EDGES = (498, 1858, 7146, 27677)


def mirrored(messages):
    """A queue that received ``messages`` one by one, and its substrate."""
    umq = UpdateMessageQueue()
    substrate = IncrementalDependencyGraph(umq, lambda: (QUERY,))
    for message in messages:
        umq.receive(message)
    return umq, substrate


def assert_matches_oracle(umq, substrate):
    oracle = detect(umq.messages(), QUERY)
    assert edge_set(substrate.dependencies()) == edge_set(
        oracle.graph.dependencies
    )
    assert substrate.detection().groups == oracle.groups
    return oracle


@pytest.mark.parametrize(
    "size, edges",
    zip(ABL_2.quick["sizes"], ABL_2_EDGES),
    ids=[str(n_updates) for n_updates, _ in ABL_2.quick["sizes"]],
)
def test_graph_scaling_queue(size, edges):
    """ABL-2: rename chains, so every rename arrival rebuilds."""
    n_updates, n_schema_changes = size
    umq, substrate = mirrored(synthetic_queue(n_updates, n_schema_changes))
    assert assert_matches_oracle(umq, substrate).edge_count == edges


@pytest.mark.parametrize("n_updates", ABL_5.quick["sizes"])
def test_incremental_detection_final_queue(n_updates):
    """ABL-5: the prefill (seed 9), then its rounds — one arrival (seed
    10), one head removal — with the runner's own defaults."""
    defaults = {
        name: parameter.default
        for name, parameter in inspect.signature(ABL_5.run).parameters.items()
    }
    rounds, seed = defaults["rounds"], defaults["workload_seed"]
    fraction = defaults["sc_fraction"]
    umq, substrate = mirrored(
        synthetic_queue(
            n_updates, max(1, int(n_updates * fraction)), seed, dropped
        )
    )
    arrivals = synthetic_queue(
        rounds,
        max(1, int(rounds * fraction)),
        seed + 1,
        dropped,
        first_seqno=n_updates + 1,
    )
    for message in arrivals:
        umq.receive(message)
        umq.remove_head()
    assert len(umq.messages()) == n_updates
    assert_matches_oracle(umq, substrate)
