"""Dependency detection's displaced implementation, kept as its oracle.

* ``find_dependencies`` — the from-scratch §4.1 builder the live
  substrate (``repro.core.incremental.IncrementalDependencyGraph``)
  replaced: every semantic edge in one bucketed scan, every concurrent
  edge by testing each queued schema change against each other
  message's footprint (O(mn)).  The substrate's ``dependencies()`` is
  held equal to it as an edge set.
* ``DependencyGraph`` — the message-level graph over those edges, with
  Definition 6's unsafe test (``is_unsafe``) and the legal order of
  Definition 7 computed by the package's own ``graph.legal_order``.
* ``detect`` — both in one round; ``correct(messages, detect(...))``
  is correction over the from-scratch graph.
* ``synthetic_queue`` (with ``renamed`` / ``dropped``) — the UMQ
  snapshots ABL-2 and ABL-5 (``benchmarks/bench_ablations.py``) time
  the builder on, and ``edge_set`` the form their identity checks
  compare.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from repro.core.dependencies import (
    Dependency,
    DependencyKind,
    Footprint,
    NameResolver,
    footprint_of_update,
)
from repro.core.graph import legal_order, strongly_connected_components
from repro.core.incremental import DetectionResult
from repro.experiments.testbed import relation_schema
from repro.relational.delta import Delta
from repro.sources.messages import (
    DataUpdate,
    DropAttribute,
    RenameRelation,
    SchemaChange,
    UpdateMessage,
)


def resolver_of(messages) -> NameResolver:
    """A resolver that has folded in every message, in order."""
    resolver = NameResolver()
    for message in messages:
        resolver.extend(message)
    return resolver


def is_unsafe(dependency: Dependency) -> bool:
    """Definition 6: unsafe iff the queue order contradicts the required
    order (indices are queue positions)."""
    return dependency.before_index > dependency.after_index


def find_dependencies(
    messages: list[UpdateMessage],
    view_query,
    rewritten_query: Callable[[UpdateMessage], object] | None = None,
) -> list[Dependency]:
    """Build all CD and SD dependencies among queued updates.

    ``messages`` are in UMQ order (which is commit-arrival order), so a
    dependency's indices double as queue positions for the Definition 6
    safety test.  Complexity: O(mn) for CDs (m schema changes) plus O(n)
    for SDs, as analyzed in Section 4.1.1.
    """
    dependencies: list[Dependency] = []

    # Semantic dependencies: adjacent updates of the same relation at
    # the same source, in commit order (single scan with buckets).
    last_touch: dict[tuple[str, str], int] = {}
    for index, message in enumerate(messages):
        for relation in message.touched_relations():
            key = (message.source, relation)
            previous = last_touch.get(key)
            if previous is not None:
                dependencies.append(
                    Dependency(previous, index, DependencyKind.SEMANTIC)
                )
            last_touch[key] = index

    # Concurrent dependencies: each view-conflicting schema change must
    # precede every other update whose maintenance footprint it
    # invalidates.  Rename lineages are resolved so chained renames
    # (R -> R__v2 -> R__v3) conflict with footprints that still carry
    # the original names.
    resolver = resolver_of(messages)
    footprints: list[Footprint | None] = [None] * len(messages)

    def footprint(index: int) -> Footprint:
        cached = footprints[index]
        if cached is None:
            cached = footprint_of_update(
                messages[index], view_query, rewritten_query, resolver
            ).normalized(resolver)
            footprints[index] = cached
        return cached

    for sc_index, sc_message in enumerate(messages):
        if not sc_message.is_schema_change:
            continue
        change = sc_message.payload
        assert isinstance(change, SchemaChange)
        for other_index in range(len(messages)):
            if other_index == sc_index:
                continue
            if footprint(other_index).conflicted_by(
                sc_message.source, change, resolver
            ):
                dependencies.append(
                    Dependency(
                        sc_index, other_index, DependencyKind.CONCURRENT
                    )
                )

    # Deduplicate parallel edges of the same kind.
    unique: dict[tuple[int, int, DependencyKind], Dependency] = {}
    for dependency in dependencies:
        key = (
            dependency.before_index,
            dependency.after_index,
            dependency.kind,
        )
        unique.setdefault(key, dependency)
    return list(unique.values())


@dataclass
class DependencyGraph:
    """A dependency graph over ``node_count`` queued updates."""

    node_count: int
    dependencies: list[Dependency] = field(default_factory=list)

    def __post_init__(self) -> None:
        for dependency in self.dependencies:
            self._check(dependency)

    def _check(self, dependency: Dependency) -> None:
        for index in (dependency.before_index, dependency.after_index):
            if not 0 <= index < self.node_count:
                raise ValueError(
                    f"dependency touches node {index}, graph has "
                    f"{self.node_count} nodes"
                )

    def add(self, dependency: Dependency) -> None:
        self._check(dependency)
        self.dependencies.append(dependency)

    @property
    def edge_count(self) -> int:
        return len(self.dependencies)

    def successors(self) -> list[list[int]]:
        adjacency: list[list[int]] = [[] for _ in range(self.node_count)]
        for dependency in self.dependencies:
            adjacency[dependency.before_index].append(dependency.after_index)
        return adjacency

    def unsafe_dependencies(self) -> list[Dependency]:
        """Dependencies violating the current queue order (Def. 6)."""
        return [d for d in self.dependencies if is_unsafe(d)]

    def strongly_connected_components(self) -> list[list[int]]:
        """SCCs in reverse topological order, members sorted ascending."""
        return strongly_connected_components(self.successors())

    def legal_order(self) -> list[list[int]]:
        """The corrected order (Theorem 2 + cycle merge) of this graph."""
        return legal_order(self.successors(), self.node_count)


@dataclass
class Detection(DetectionResult):
    """A detection round that also holds its message-level graph."""

    graph: DependencyGraph

    @property
    def unsafe(self) -> list[Dependency]:
        return self.graph.unsafe_dependencies()


def detect(
    messages: list[UpdateMessage],
    view_query,
    rewritten_query: Callable[[UpdateMessage], object] | None = None,
) -> Detection:
    """Pre-exec detection over the queued updates, from scratch.

    ``messages`` must be in current queue order; indices double as queue
    positions for the Definition 6 safety test.  ``view_query`` is one
    SPJ query or a sequence of them (multi-view deployments).
    """
    dependencies = find_dependencies(messages, view_query, rewritten_query)
    graph = DependencyGraph(len(messages), dependencies)
    return Detection(
        graph.node_count, graph.edge_count, graph.legal_order(), graph
    )


def edge_set(dependencies) -> set[tuple[int, int, DependencyKind]]:
    return {
        (dep.before_index, dep.after_index, dep.kind)
        for dep in dependencies
    }


# --- the ablations' synthetic queues -----------------------------------


def renamed(schema, relation_index: int, position: int):
    """A lineage-building schema change: rename chains force resolver
    rebuilds (the O(mn) worst case ABL-2 measures)."""
    return RenameRelation(schema.name, f"{schema.name}__v{position}")


def dropped(schema, relation_index: int, position: int):
    """A *non-lineage* schema change (the workload where incremental
    detection shines: no rename chains, so arrivals never force a
    resolver rebuild)."""
    return DropAttribute(schema.name, f"C{relation_index + 1}")


def synthetic_queue(
    count: int,
    n_schema_changes: int,
    workload_seed: int = 5,
    schema_change=renamed,
    first_seqno: int = 1,
) -> list[UpdateMessage]:
    """A UMQ snapshot of ``count`` messages: single-row inserts, with
    ``n_schema_changes`` of them replaced by
    ``schema_change(schema, relation_index, position)``."""
    rng = random.Random(workload_seed)
    messages: list[UpdateMessage] = []
    sc_positions = set(
        rng.sample(range(count), min(n_schema_changes, count))
    )
    for position in range(count):
        relation_index = rng.randrange(6)
        schema = relation_schema(relation_index)
        source = f"src{relation_index // 2 + 1}"
        if position in sc_positions:
            payload = schema_change(schema, relation_index, position)
        else:
            delta = Delta.insertion(
                schema, [(position, "x", 1.0, position)]
            )
            payload = DataUpdate(schema.name, delta)
        seqno = first_seqno + position
        messages.append(
            UpdateMessage(source, seqno, float(seqno), payload)
        )
    return messages
