"""Concurrency-handling strategies (Section 4.1.3 and baselines).

A strategy decides *when* detection/correction runs:

* **pessimistic** (Dyno's choice, Section 4.3) — pre-exec detection
  whenever the schema-change flag is up, plus in-exec detection as the
  safety net for schema changes that land mid-maintenance;
* **optimistic** — in-exec only: no flag checks or graph builds until a
  broken query actually happens, at which point the whole UMQ is
  corrected;
* **naive** — the pre-Dyno state of the art: FIFO processing; a broken
  query permanently fails that update's maintenance (used to *show* the
  anomalies, never to fix them);
* **blind-merge** — the strawman of Section 4.2: on any broken query,
  merge the entire UMQ into one batch.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class BrokenQueryPolicy(enum.Enum):
    #: rebuild the graph and reschedule (Dyno)
    CORRECT = "correct"
    #: merge the whole queue into one batch
    MERGE_ALL = "merge_all"
    #: drop the update whose maintenance broke (incorrect baseline)
    SKIP = "skip"


@dataclass(frozen=True)
class Strategy:
    """One detection/correction policy."""

    name: str
    #: run pre-exec detection (flag-gated) before each maintenance
    pre_exec: bool
    #: what to do when in-exec detection reports a broken query
    on_broken_query: BrokenQueryPolicy

    def __str__(self) -> str:
        return self.name


PESSIMISTIC = Strategy(
    "pessimistic", pre_exec=True, on_broken_query=BrokenQueryPolicy.CORRECT
)
OPTIMISTIC = Strategy(
    "optimistic", pre_exec=False, on_broken_query=BrokenQueryPolicy.CORRECT
)
NAIVE = Strategy(
    "naive", pre_exec=False, on_broken_query=BrokenQueryPolicy.SKIP
)
BLIND_MERGE = Strategy(
    "blind-merge",
    pre_exec=False,
    on_broken_query=BrokenQueryPolicy.MERGE_ALL,
)


def check_parallel_strategy(
    strategy: Strategy, workers: int | None
) -> None:
    """Refuse a strategy that would not mean the same under the parallel
    executor: its dispatcher corrects a dependency cycle with
    ``detect_and_correct()`` whatever the strategy, so naive and
    blind-merge there would run partly as Dyno under a baseline's
    name."""
    if workers is not None and (
        strategy.on_broken_query is not BrokenQueryPolicy.CORRECT
    ):
        raise ValueError(
            f"strategy {strategy.name!r} cannot run with "
            f"parallel_workers={workers}: the parallel executor corrects "
            "dependency cycles, so only 'pessimistic' and 'optimistic' "
            "mean the same there as in the serial loop"
        )
