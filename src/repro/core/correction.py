"""Dependency correction (Section 4.2).

Given the detected dependency graph, correction produces a *legal order*
(Definition 7): merge every cycle into one batch node (the updates of a
maintenance deadlock cannot be aborted — they are already committed at
the sources — so they are processed as one atomic batch), then
topologically sort and reorder the UMQ.

Correction operates on whole-UMQ snapshots; the Dyno scheduler re-runs
it whenever the schema-change flag is raised or a broken query aborts
the current maintenance (Section 4.3 extends the static algorithm to
the dynamic context exactly this way).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..sources.messages import UpdateMessage
from ..views.umq import MaintenanceUnit
from .detection import DetectionResult, detect


@dataclass
class CorrectionResult:
    """The corrected schedule plus accounting for the cost model."""

    units: list[MaintenanceUnit]
    detection: DetectionResult
    merges: int
    changed: bool

    @property
    def node_count(self) -> int:
        return self.detection.node_count

    @property
    def edge_count(self) -> int:
        return self.detection.edge_count


def correct(
    messages: list[UpdateMessage],
    view_query,
    rewritten_query: Callable[[UpdateMessage], object] | None = None,
    detection: DetectionResult | None = None,
) -> CorrectionResult:
    """Detect dependencies and compute a legal maintenance order.

    The returned units preserve FIFO order wherever dependencies allow;
    messages inside a merged batch keep their commit order so batch
    preprocessing (Section 5) can combine them correctly.  A caller
    holding a detection round already (the incremental detection
    substrate's class-graph order) passes it as ``detection`` to skip
    the from-scratch build.
    """
    if detection is None:
        detection = detect(messages, view_query, rewritten_query)
    groups = detection.groups
    units = [
        MaintenanceUnit([messages[index] for index in group])
        for group in groups
    ]
    merges = sum(1 for group in groups if len(group) > 1)
    changed = [message for unit in units for message in unit] != messages
    return CorrectionResult(units, detection, merges, changed)


def merge_all(
    messages: list[UpdateMessage],
    view_query,
    detection: DetectionResult | None = None,
) -> CorrectionResult:
    """The simplistic alternative of Section 4.2: merge *everything*
    into one batch whenever a broken query occurs.

    Kept as a baseline; the paper argues (and our ablation bench
    confirms) that it loses intermediate view states and inflates both
    the batch cost and the chance of further aborts.
    """
    if detection is None:
        detection = detect(messages, view_query)
    units = [MaintenanceUnit(list(messages))] if messages else []
    return CorrectionResult(
        units, detection, merges=1 if len(messages) > 1 else 0, changed=True
    )
