"""Graph-correction invariants over random dependency graphs.

Theorem 2 / Definition 7: the corrected order is *legal* — every
dependency points forward (within-group counts as satisfied, the group
is maintained atomically).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dependencies import Dependency, DependencyKind
from repro.core.graph import DependencyGraph


@st.composite
def graphs(draw):
    node_count = draw(st.integers(min_value=1, max_value=16))
    edge_count = draw(st.integers(min_value=0, max_value=40))
    dependencies = []
    for _ in range(edge_count):
        before = draw(st.integers(min_value=0, max_value=node_count - 1))
        after = draw(st.integers(min_value=0, max_value=node_count - 1))
        if before != after:
            kind = draw(
                st.sampled_from(
                    [DependencyKind.CONCURRENT, DependencyKind.SEMANTIC]
                )
            )
            dependencies.append(Dependency(before, after, kind))
    return DependencyGraph(node_count, dependencies)


@given(graphs())
@settings(max_examples=150, deadline=None)
def test_legal_order_satisfies_every_dependency(graph):
    order = graph.legal_order()
    group_of = {}
    for group_index, group in enumerate(order):
        for member in group:
            group_of[member] = group_index
    for dependency in graph.dependencies:
        assert (
            group_of[dependency.before_index]
            <= group_of[dependency.after_index]
        )


@given(graphs())
@settings(max_examples=150, deadline=None)
def test_legal_order_is_a_partition(graph):
    order = graph.legal_order()
    flat = sorted(member for group in order for member in group)
    assert flat == list(range(graph.node_count))


@given(graphs())
@settings(max_examples=100, deadline=None)
def test_groups_are_exactly_the_sccs(graph):
    order = graph.legal_order()
    sccs = {
        frozenset(component)
        for component in graph.strongly_connected_components()
    }
    assert {frozenset(group) for group in order} == sccs


@given(graphs())
@settings(max_examples=100, deadline=None)
def test_acyclic_graph_never_merges(graph):
    cycles = [
        component
        for component in graph.strongly_connected_components()
        if len(component) > 1
    ]
    if not cycles:
        order = graph.legal_order()
        assert all(len(group) == 1 for group in order)


@given(graphs())
@settings(max_examples=100, deadline=None)
def test_no_unsafe_dependencies_after_renumbering(graph):
    """Renumber nodes by their corrected position: Definition 6 must
    find nothing unsafe in the corrected schedule."""
    order = graph.legal_order()
    position = {}
    for group_index, group in enumerate(order):
        for member in group:
            position[member] = group_index
    for dependency in graph.dependencies:
        renumbered = Dependency(
            position[dependency.before_index],
            position[dependency.after_index],
            dependency.kind,
        )
        assert not renumbered.is_unsafe()
