"""Worker timelines for the parallel maintenance executor.

The serial Dyno loop charges every maintenance effect to one global
clock: total cost *is* elapsed time.  The parallel executor instead runs
N simulated workers, each driving one maintenance-unit generator, and
elapsed time becomes the **makespan** — the virtual clock at quiescence,
i.e. the completion time of the critical path across worker timelines.

This module holds the timeline primitives; the scheduling *policy*
(which unit may run when) lives in :mod:`repro.core.parallel`:

* :class:`WorkerState` — one worker: the unit it is maintaining, its
  generator, its pending-message overlay (the messages SWEEP
  compensation must treat as *behind* the unit), and busy-time
  accounting for utilization metrics;
* :class:`QueryJob` — one worker's logical maintenance query, with its
  own :class:`~repro.sim.engine.RetryState` so faults burn the same
  budget as the serial path;
* :class:`Trip` — one round trip on a source's query channel; a trip
  carrying several jobs is a *batch*: independent units maintaining
  against the same source coalesce their IN-list probes into one
  combined request, paying ``query_base`` once;
* :class:`SourceChannel` — per-source admission: a source accepts only
  ``CostModel.source_channel_limit`` concurrent trips, so parallel
  speedup saturates realistically; waiting *batchable* jobs coalesce
  when a slot frees — contention is exactly what creates batches;
* :class:`WorkerPool` — the worker set, its busy count and
  peak-parallelism tracking.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from ..sources.messages import UpdateMessage
from ..views.umq import MaintenanceUnit
from .effects import SourceQuery
from .engine import MaintenanceProcess, RetryState


@dataclass
class WorkerState:
    """One simulated maintenance worker."""

    index: int
    #: the pool told of every assign and release (keeps its busy count)
    pool: WorkerPool = field(repr=False, compare=False)
    #: unit being maintained (None = idle)
    unit: MaintenanceUnit | None = None
    process: MaintenanceProcess | None = None
    #: virtual time the unit was handed to this worker
    dispatched_at: float = 0.0
    #: messages serialized *behind* the unit (dispatch-order
    #: serialization): the queue snapshot at dispatch, later arrivals,
    #: and messages of units requeued by aborts — deduplicated by id
    pending: list[UpdateMessage] = field(default_factory=list)
    _pending_ids: set[int] = field(default_factory=set)
    #: total busy virtual time across all units (utilization metric)
    busy_time: float = 0.0
    #: wire round trips paid for the *current* unit (retries and batch
    #: participations included) — zero at install means the unit was
    #: fully self-maintained
    wire_trips: int = 0
    #: assignment epoch: bumped on every assign/release so that events
    #: scheduled for a torn-down (or since-reassigned) worker can detect
    #: they are stale and do nothing
    generation: int = 0
    #: query answers this worker's process has consumed for the current
    #: unit — an answer consumed before a unit requeue may have baked
    #: the requeued unit's effect in as "serialized before", so any
    #: worker with ``answers_seen > 0`` must restart on requeue
    answers_seen: int = 0
    #: prepared outcome parked until this unit's turn in dispatch order
    outcome: object = None
    outcome_ready: bool = False
    #: the unit's ``(source, relation)`` keys, computed once at dispatch:
    #: no other unit touching one of them may dispatch beside it
    touched: frozenset[tuple[str, str]] = frozenset()

    @property
    def idle(self) -> bool:
        return self.unit is None

    def assign(
        self,
        unit: MaintenanceUnit,
        process: MaintenanceProcess,
        at: float,
        pending: list[UpdateMessage],
        touched: frozenset[tuple[str, str]] = frozenset(),
    ) -> None:
        if self.unit is None:
            self.pool.note_busy(self)
        self.unit = unit
        self.process = process
        self.dispatched_at = at
        self.generation += 1
        self.answers_seen = 0
        self.wire_trips = 0
        self.outcome = None
        self.outcome_ready = False
        self.touched = touched
        self.pending = []
        self._pending_ids = set()
        for message in pending:
            self.add_pending(message)

    def add_pending(self, message: UpdateMessage) -> None:
        if id(message) not in self._pending_ids:
            self._pending_ids.add(id(message))
            self.pending.append(message)

    def pending_feed(self) -> Callable[[], list[UpdateMessage]]:
        """The overlay callable handed to the view manager's
        compensation facade (live: sees arrivals after dispatch)."""
        return lambda: list(self.pending)

    def release(self) -> MaintenanceUnit:
        unit = self.unit
        assert unit is not None
        self.pool.note_idle(self)
        self.unit = None
        self.process = None
        self.generation += 1
        self.answers_seen = 0
        self.wire_trips = 0
        self.outcome = None
        self.outcome_ready = False
        self.touched = frozenset()
        self.pending = []
        self._pending_ids = set()
        return unit


@dataclass
class QueryJob:
    """One worker's logical maintenance query (a trip participant)."""

    worker: WorkerState
    effect: SourceQuery
    retry: RetryState
    #: request cost of this job alone (``query_base`` + per-probe/scan)
    request_cost: float = 0.0
    #: the worker's assignment epoch at submission; a mismatch at any
    #: later step means the unit was torn down (abort/abandon/restart)
    #: and this job is stale
    generation: int = 0

    @property
    def stale(self) -> bool:
        return self.worker.generation != self.generation


@dataclass
class Trip:
    """One round trip occupying a channel slot.

    ``jobs`` has one entry for a plain trip, several for a coalesced
    batch; every participant's query is evaluated at the same instant
    (the shared answer time) and each answer transfers back to its own
    worker independently.
    """

    source_name: str
    jobs: list[QueryJob]
    started_at: float = 0.0
    answer_at: float = 0.0

    @property
    def is_batch(self) -> bool:
        return len(self.jobs) > 1

    def combined_request_cost(self, query_base: float) -> float:
        """``query_base`` paid once; per-probe/per-scan parts add up."""
        if not self.jobs:
            return 0.0
        total = query_base
        for job in self.jobs:
            total += job.request_cost - query_base
        return total


class SourceChannel:
    """Admission control for one source's maintenance queries.

    ``limit`` trips run concurrently; further jobs wait in FIFO order.
    When capacity frees, the head waiter departs — and if it is
    *batchable*, every other waiting batchable job departs with it as
    one combined trip (non-batchable scans always travel alone).
    """

    def __init__(self, name: str, limit: int) -> None:
        self.name = name
        self.limit = max(1, limit)
        self.in_flight = 0
        self.waiting: deque[QueryJob] = deque()

    @property
    def has_capacity(self) -> bool:
        return self.in_flight < self.limit

    def submit(self, job: QueryJob) -> Trip | None:
        """Offer a job; returns the trip to start now, or ``None`` if
        the job queued behind the channel's capacity."""
        self.waiting.append(job)
        return self.next_trip()

    def next_trip(self) -> Trip | None:
        """Form the next trip from the waiting line, if a slot is free.

        Jobs whose unit was torn down while they waited (stale
        generation) are silently discarded — their worker has been
        released or reassigned and nobody is listening for the answer.
        """
        while self.waiting and self.waiting[0].stale:
            self.waiting.popleft()
        if not self.waiting or not self.has_capacity:
            return None
        head = self.waiting.popleft()
        jobs = [head]
        if head.effect.batchable:
            rest: deque[QueryJob] = deque()
            while self.waiting:
                job = self.waiting.popleft()
                if job.stale:
                    continue
                if job.effect.batchable:
                    jobs.append(job)
                else:
                    rest.append(job)
            self.waiting = rest
        self.in_flight += 1
        return Trip(self.name, jobs)

    def release(self) -> None:
        assert self.in_flight > 0
        self.in_flight -= 1


class WorkerPool:
    """N workers plus cross-worker accounting.

    Every assign and release reports here, so the busy count and the
    idle set are kept, not recounted: ``any_busy`` and ``idle_worker``
    are asked several times per event and read no worker.
    """

    def __init__(self, count: int) -> None:
        if count < 1:
            raise ValueError("worker count must be >= 1")
        self.workers = [WorkerState(index, self) for index in range(count)]
        self.busy = 0
        #: bit ``i`` set <=> worker ``i`` is idle
        self._idle_bits = (1 << count) - 1
        self.peak_parallelism = 0

    def __len__(self) -> int:
        return len(self.workers)

    def note_busy(self, worker: WorkerState) -> None:
        self.busy += 1
        self._idle_bits &= ~(1 << worker.index)

    def note_idle(self, worker: WorkerState) -> None:
        self.busy -= 1
        self._idle_bits |= 1 << worker.index

    def idle_worker(self) -> WorkerState | None:
        """The lowest-numbered idle worker, or ``None``."""
        bits = self._idle_bits
        if not bits:
            return None
        return self.workers[(bits & -bits).bit_length() - 1]

    def busy_workers(self) -> list[WorkerState]:
        return [worker for worker in self.workers if not worker.idle]

    @property
    def any_busy(self) -> bool:
        return self.busy > 0

    @property
    def all_idle(self) -> bool:
        return self.busy == 0

    def note_parallelism(self) -> None:
        if self.busy > self.peak_parallelism:
            self.peak_parallelism = self.busy
