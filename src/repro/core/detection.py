"""Dependency detection (Section 4.1).

Detection has two *modes*:

* **pre-exec** — before maintaining, scan the UMQ, build the dependency
  graph and look for unsafe dependencies (this module);
* **in-exec** — the query engine reports a broken query during
  maintenance, which by Theorem 1 implies an unsafe dependency (realized
  as :class:`~repro.sources.errors.BrokenQueryError` propagating out of
  a maintenance process; see the scheduler).

The ``NewSchemaChangeFlag`` optimization of Section 4.1.1 lives in the
UMQ: when only data updates have arrived, no concurrent dependency can
exist and all semantic dependencies are already safe (FIFO = commit
order), so detection is skipped entirely — O(1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..sources.messages import UpdateMessage
from .dependencies import Dependency, find_dependencies
from .graph import DependencyGraph


@dataclass
class DetectionResult:
    """What correction reads of a detection round: the graph's size
    (the cost model charges it) and its legal order."""

    node_count: int
    edge_count: int
    groups: list[list[int]]
    #: the message-level graph; :func:`detect` builds one, the live
    #: substrate never does
    graph: DependencyGraph | None = None

    @property
    def unsafe(self) -> list[Dependency]:
        return self.graph.unsafe_dependencies()


def detect(
    messages: list[UpdateMessage],
    view_query,
    rewritten_query: Callable[[UpdateMessage], object] | None = None,
) -> DetectionResult:
    """Pre-exec detection over the queued updates.

    ``messages`` must be in current queue order; indices double as queue
    positions for the Definition 6 safety test.  ``view_query`` is one
    SPJ query or a sequence of them (multi-view deployments).
    """
    dependencies = find_dependencies(messages, view_query, rewritten_query)
    graph = DependencyGraph(len(messages), dependencies)
    return DetectionResult(
        graph.node_count, graph.edge_count, graph.legal_order(), graph
    )
