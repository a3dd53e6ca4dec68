"""ABL-2 benchmark: dependency-graph construction scaling (O(mn)).

Section 4.1.1 analyzes graph construction as O(mn) + O(n); this bench
measures the real constant factors of our implementation.
"""

from repro.experiments import (
    run_graph_scaling_ablation,
    run_incremental_detection_ablation,
)
from repro.experiments.ablations import _synthetic_queue
from repro.core.dependencies import find_dependencies
from repro.core.incremental import IncrementalDependencyGraph
from repro.core.strategies import PESSIMISTIC
from repro.experiments.testbed import build_testbed
from repro.sources.messages import RenameRelation, UpdateMessage
from repro.views.umq import UpdateMessageQueue

from benchmarks._helpers import full_scale


def test_ablation_graph_scaling_table(benchmark, save_result):
    sizes = (
        ((100, 5), (200, 10), (400, 20), (800, 40), (1600, 80))
        if full_scale()
        else ((100, 5), (200, 10), (400, 20), (800, 40))
    )
    result = benchmark.pedantic(
        run_graph_scaling_ablation,
        kwargs={"sizes": sizes},
        rounds=1,
        iterations=1,
    )
    save_result(result)
    edges = result.series("edges")
    # O(mn): 2x n and 2x m -> ~4x edges between consecutive points.
    for previous, current in zip(edges, edges[1:]):
        assert 2.0 < current / previous < 8.0


def test_ablation_incremental_detection(benchmark, save_result):
    """ABL-3: the incremental substrate vs per-round rebuilds.

    The substrate's contract (and this PR's acceptance bar): at queue
    length >= 200 on a DU-heavy stream, per-round detection must be at
    least 2x cheaper than a from-scratch build, with bit-identical
    corrected orders.
    """
    sizes = (50, 100, 200, 400, 800) if full_scale() else (50, 100, 200, 400)
    result = benchmark.pedantic(
        run_incremental_detection_ablation,
        kwargs={"sizes": sizes},
        rounds=1,
        iterations=1,
    )
    save_result(result)
    assert result.consistent  # orders verified identical inside the run
    for point in result.points:
        if point.x >= 200:
            assert point.values["speedup"] >= 2.0


def test_micro_graph_build(benchmark):
    """Steady-state timing of one pre-exec detection round."""
    view_query = build_testbed(
        PESSIMISTIC, tuples_per_relation=4
    ).manager.view.query
    messages = _synthetic_queue(400, 20)
    benchmark(find_dependencies, messages, view_query)


def test_micro_legal_order(benchmark):
    """Cycle merge + topological sort on a 400-update queue."""
    from repro.core.detection import detect

    view_query = build_testbed(
        PESSIMISTIC, tuples_per_relation=4
    ).manager.view.query
    messages = _synthetic_queue(400, 20)
    graph = detect(messages, view_query).graph
    benchmark(graph.legal_order)


def test_micro_rename_arrival(benchmark):
    """One ``RenameRelation`` arrival into a 400-message queue holding
    20 renames: the live graph's rebuild fallback, which is what an
    arrival costs on rename-heavy traffic (the spine's ``sc_mixed``)."""
    view_query = build_testbed(
        PESSIMISTIC, tuples_per_relation=4
    ).manager.view.query
    prefill = _synthetic_queue(400, 20)
    arrival = UpdateMessage(
        "src1", 401, 401.0, RenameRelation("R1", "R1__arrival")
    )

    def queue_of_400():
        umq = UpdateMessageQueue()
        graph = IncrementalDependencyGraph(umq, lambda: (view_query,))
        for message in prefill:
            umq.receive(message)
        return (umq, graph), {}

    def arrive(umq, graph):
        umq.receive(arrival)
        return graph.edge_count

    edges = benchmark.pedantic(arrive, setup=queue_of_400, rounds=25)
    assert edges == len(find_dependencies([*prefill, arrival], view_query))
