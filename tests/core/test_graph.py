"""Dependency graph algorithms, checked against networkx oracles."""

import random

import networkx as nx
import pytest

from repro.core.dependencies import Dependency, DependencyKind
from repro.core.graph import DependencyGraph

CD = DependencyKind.CONCURRENT
SD = DependencyKind.SEMANTIC


def graph_of(node_count: int, edges: list[tuple[int, int]]) -> DependencyGraph:
    return DependencyGraph(
        node_count, [Dependency(a, b, CD) for a, b in edges]
    )


class TestBasics:
    def test_edge_validation(self):
        with pytest.raises(ValueError):
            graph_of(2, [(0, 5)])

    def test_add_and_count(self):
        graph = graph_of(3, [(0, 1)])
        graph.add(Dependency(1, 2, SD))
        assert graph.edge_count == 2

    def test_unsafe_detection(self):
        graph = graph_of(3, [(2, 0), (0, 1)])
        unsafe = graph.unsafe_dependencies()
        assert len(unsafe) == 1
        assert unsafe[0].before_index == 2
        assert any(d.is_unsafe() for d in graph.dependencies)

    def test_edges_of_kind(self):
        graph = graph_of(3, [(0, 1)])
        graph.add(Dependency(1, 2, SD))
        assert len([d for d in graph.dependencies if d.kind is CD]) == 1
        assert len([d for d in graph.dependencies if d.kind is SD]) == 1


class TestSCC:
    def test_simple_cycle(self):
        graph = graph_of(3, [(0, 1), (1, 0)])
        components = graph.strongly_connected_components()
        assert [0, 1] in components
        assert [2] in components
        assert sum(len(component) > 1 for component in components) == 1

    def test_matches_networkx_on_random_graphs(self):
        rng = random.Random(42)
        for _trial in range(25):
            node_count = rng.randrange(2, 30)
            edges = [
                (rng.randrange(node_count), rng.randrange(node_count))
                for _ in range(rng.randrange(0, node_count * 2))
            ]
            edges = [(a, b) for a, b in edges if a != b]
            ours = graph_of(node_count, edges)
            mine = {
                frozenset(component)
                for component in ours.strongly_connected_components()
            }
            oracle_graph = nx.DiGraph()
            oracle_graph.add_nodes_from(range(node_count))
            oracle_graph.add_edges_from(edges)
            oracle = {
                frozenset(component)
                for component in nx.strongly_connected_components(
                    oracle_graph
                )
            }
            assert mine == oracle

    def test_large_path_graph_no_recursion_error(self):
        node_count = 50_000
        edges = [(i, i + 1) for i in range(node_count - 1)]
        graph = graph_of(node_count, edges)
        assert len(graph.strongly_connected_components()) == node_count


class TestLegalOrder:
    def assert_legal(self, graph: DependencyGraph) -> list[list[int]]:
        order = graph.legal_order()
        position = {}
        for group_index, group in enumerate(order):
            for member in group:
                position[member] = group_index
        for dependency in graph.dependencies:
            assert (
                position[dependency.before_index]
                <= position[dependency.after_index]
            )
        return order

    def test_respects_edges(self):
        graph = graph_of(4, [(3, 0), (2, 1)])
        order = self.assert_legal(graph)
        flat = [m for group in order for m in group]
        assert flat.index(3) < flat.index(0)
        assert flat.index(2) < flat.index(1)

    def test_preserves_fifo_among_independent(self):
        graph = graph_of(4, [])
        assert graph.legal_order() == [[0], [1], [2], [3]]

    def test_cycle_merged_into_group(self):
        graph = graph_of(4, [(1, 2), (2, 1)])
        order = self.assert_legal(graph)
        assert [1, 2] in order

    def test_figure_5_style_graph(self):
        """Eight nodes with two cycles, like the paper's Figure 5."""
        edges = [
            (0, 1),
            (2, 0),  # unsafe: 2 must precede 0
            (1, 3),
            (3, 1),  # cycle {1, 3}
            (4, 5),
            (6, 4),
            (5, 6),  # cycle {4, 5, 6}
            (6, 7),
        ]
        graph = graph_of(8, edges)
        order = self.assert_legal(graph)
        groups = {tuple(group) for group in order}
        assert (1, 3) in groups
        assert (4, 5, 6) in groups
        flat = [m for group in order for m in group]
        assert flat.index(2) < flat.index(0)

    def test_matches_networkx_condensation_count(self):
        rng = random.Random(7)
        for _trial in range(15):
            node_count = rng.randrange(2, 25)
            edges = [
                (rng.randrange(node_count), rng.randrange(node_count))
                for _ in range(rng.randrange(0, node_count * 2))
            ]
            edges = [(a, b) for a, b in edges if a != b]
            graph = graph_of(node_count, edges)
            order = graph.legal_order()
            oracle_graph = nx.DiGraph()
            oracle_graph.add_nodes_from(range(node_count))
            oracle_graph.add_edges_from(edges)
            assert len(order) == len(
                list(nx.strongly_connected_components(oracle_graph))
            )

    def test_all_nodes_present_exactly_once(self):
        graph = graph_of(6, [(0, 1), (1, 0), (5, 4)])
        order = graph.legal_order()
        flat = sorted(m for group in order for m in group)
        assert flat == list(range(6))
