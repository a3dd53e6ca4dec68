"""The dependency graph's algorithms.

Nodes are queue positions of the updates in the UMQ; edges are
dependencies oriented *must-run-before*.  Two classic algorithms, both
implemented iteratively (no recursion limits on large queues):

* Tarjan's strongly-connected components [16] — a cycle in the graph is
  a maintenance deadlock that cannot be aborted (the source updates are
  committed), so each non-trivial SCC is *merged* into one batch node;
* Kahn topological sort with a position-ordered heap — produces the
  legal order (Definition 7) while preserving the original FIFO order
  among unconstrained updates, so the view visits as many intermediate
  states as possible (Section 4.2's argument against blind merging).

Both run over integer adjacency: the live substrate feeds them its class
graph (docs/ALGORITHMS.md §Incremental detection substrate).
"""

from __future__ import annotations

import heapq


def strongly_connected_components(
    adjacency: list[list[int]],
) -> list[list[int]]:
    """Tarjan's SCCs of an integer adjacency list (iterative), in
    reverse topological order, members sorted ascending."""
    node_count = len(adjacency)
    index_counter = 0
    stack: list[int] = []
    on_stack = [False] * node_count
    indices = [-1] * node_count
    lowlinks = [0] * node_count
    components: list[list[int]] = []

    for root in range(node_count):
        if indices[root] != -1:
            continue
        # Iterative Tarjan with an explicit work stack of
        # (node, iterator position).
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            node, position = work[-1]
            if position == 0:
                indices[node] = index_counter
                lowlinks[node] = index_counter
                index_counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            neighbours = adjacency[node]
            while position < len(neighbours):
                successor = neighbours[position]
                position += 1
                if indices[successor] == -1:
                    work[-1] = (node, position)
                    work.append((successor, 0))
                    advanced = True
                    break
                if on_stack[successor]:
                    lowlinks[node] = min(lowlinks[node], indices[successor])
            if advanced:
                continue
            work.pop()
            if lowlinks[node] == indices[node]:
                component: list[int] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                components.append(sorted(component))
            if work:
                parent, _ = work[-1]
                lowlinks[parent] = min(lowlinks[parent], lowlinks[node])
    return components


def legal_order(
    adjacency: list[list[int]], real_count: int
) -> list[list[int]]:
    """Condensation + stable topological sort of an integer graph.

    Nodes from ``real_count`` on only relay reachability (footprint
    classes).  Returns groups of the real nodes (queue positions):
    singletons are ordinary updates, larger groups merged batch nodes.
    Ties go to the smallest queue position, so unconstrained updates
    keep their FIFO order; a component with no real node is keyed
    ``-1``, popped the moment it is free, and not output.
    """
    components = strongly_connected_components(adjacency)
    component_of = [0] * len(adjacency)
    for component_id, members in enumerate(components):
        for member in members:
            component_of[member] = component_id

    successors: list[set[int]] = [set() for _ in components]
    indegree = [0] * len(components)
    for node, targets in enumerate(adjacency):
        before = component_of[node]
        for target in targets:
            after = component_of[target]
            if before != after and after not in successors[before]:
                successors[before].add(after)
                indegree[after] += 1

    keys = [m[0] if m[0] < real_count else -1 for m in components]
    heap = [(keys[c], c) for c, degree in enumerate(indegree) if not degree]
    heapq.heapify(heap)
    ordered: list[list[int]] = []
    while heap:
        key, component_id = heapq.heappop(heap)
        if key >= 0:
            ordered.append(
                [m for m in components[component_id] if m < real_count]
            )
        for successor in successors[component_id]:
            indegree[successor] -= 1
            if indegree[successor] == 0:
                heapq.heappush(heap, (keys[successor], successor))
    if any(indegree):  # pragma: no cover
        raise AssertionError(
            "condensation was not acyclic; Tarjan SCC is broken"
        )
    return ordered
