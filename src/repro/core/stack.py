"""One warehouse stack, one constructor.

A *stack* is the paper's view manager + UMQ + Dyno loop (Figures 3, 6
and 7) over one engine: a ``(manager, scheduler)`` pair, the manager
being a :class:`~repro.views.multi.MultiViewManager` over one or more
views.  What shapes it beyond its view definitions is one frozen
:class:`StackDescription`, and :func:`build_stack` is the only place in
the package that constructs a stack and picks the serial or the
parallel scheduler.
Experiment worlds, the :class:`~repro.dyda.DyDaSystem` facade and crash
recovery all build through it, so the stack ``recover()`` rebuilds *is*
the stack that crashed: a rebuild path that is the build path cannot
forget a knob.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..maintenance.grouping import BatchPolicy
from ..relational.table import Table
from ..sim.engine import SimEngine
from ..sources.messages import UpdateMessage
from ..sources.mkb import MetaKnowledgeBase
from ..views.definition import ViewDefinition
from ..views.multi import MultiViewManager
from .parallel import ParallelScheduler
from .scheduler import DynoScheduler
from .strategies import PESSIMISTIC, Strategy


@dataclass(frozen=True)
class StackDescription:
    """What a stack is built from, besides its views."""

    strategy: Strategy = PESSIMISTIC
    #: ``None`` is the serial Dyno loop, ``n`` the parallel executor
    #: with ``n`` workers
    parallel_workers: int | None = None
    batch_policy: BatchPolicy | None = None
    mkb: MetaKnowledgeBase | None = None
    #: the world's *pure* delivery predicate, consulted by the live
    #: wrappers and again by recovery
    #: (:func:`~repro.views.multi.filtered_sink`); ``None``: unrouted,
    #: every message is delivered
    accepts: Callable[[UpdateMessage], bool] | None = None


def build_stack(
    engine: SimEngine,
    definitions: Sequence[ViewDefinition],
    description: StackDescription,
    extents: Sequence[Table] | None = None,
    backlog: Iterable[UpdateMessage] = (),
) -> tuple[MultiViewManager, DynoScheduler]:
    """Build the ``(manager, scheduler)`` pair ``description`` names.

    ``extents`` (one per definition) restores the views verbatim
    instead of loading them from the sources — the recovery path.
    ``backlog`` is what the warehouse already owes: it is enqueued
    before the scheduler exists, because a scheduler mirrors the queue
    it is constructed over in one rebuild, while arrivals after
    construction are each charged as an incremental update.
    """
    manager = MultiViewManager(
        engine,
        list(definitions),
        description.mkb,
        initial_extents={
            definition.name: extent
            for definition, extent in zip(definitions, extents or ())
        },
        message_filter=description.accepts,
    )
    for message in backlog:
        manager.umq.receive(message)
    if description.parallel_workers is None:
        scheduler = DynoScheduler(
            manager,
            description.strategy,
            batch_policy=description.batch_policy,
        )
    else:
        scheduler = ParallelScheduler(
            manager,
            description.strategy,
            workers=description.parallel_workers,
            batch_policy=description.batch_policy,
        )
    return manager, scheduler
