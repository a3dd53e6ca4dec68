"""Test-side recorders.  Each hooks a public seam a run already goes
through and keeps one record per event, so the package itself keeps no
per-event log that only tests read."""

from __future__ import annotations

from contextlib import contextmanager

from repro.core.incremental import IncrementalDependencyGraph
from repro.core.parallel import ParallelScheduler
from repro.maintenance import compensation, va, vm
from repro.relational.errors import RelationalError
from repro.relational.executor import BagProbe
from repro.views.umq import UpdateMessageQueue


def record_dispatches(scheduler) -> list[dict]:
    """One record per unit a parallel scheduler dispatches: the unit's
    messages and those of every unit in flight beside it.  Hooks
    ``manager.compute_unit``, which the executor calls once per
    dispatch, right after assigning the unit to its worker."""
    records: list[dict] = []
    manager = scheduler.manager
    compute = manager.compute_unit

    def recording(unit, pending_feed=None):
        records.append(
            {
                "unit": list(unit.messages),
                "in_flight": [
                    list(worker.unit.messages)
                    for worker in scheduler.pool.workers
                    if worker.unit is not None and worker.unit is not unit
                ],
            }
        )
        return compute(unit, pending_feed=pending_feed)

    manager.compute_unit = recording
    return records


@contextmanager
def counted_ready_units():
    """Count every ``IncrementalDependencyGraph.ready_units`` call inside
    the block (the parallel dispatcher's ready-set scan); yields a
    one-entry list holding the count."""
    calls = [0]
    original = IncrementalDependencyGraph.ready_units

    def counted(substrate):
        calls[0] += 1
        return original(substrate)

    IncrementalDependencyGraph.ready_units = counted
    try:
        yield calls
    finally:
        IncrementalDependencyGraph.ready_units = original


def record_local_serves(engine, scheduler=lambda: None) -> list[dict]:
    """One record per maintenance query the local tier answered
    (``engine.serve_local`` hit): the tier, the serve and answer
    instants, round trips spent, and the occupancy of the source
    channel the hit skipped (``scheduler()`` supplies the channels)."""
    records: list[dict] = []
    serve = engine.serve_local

    def recording(effect):
        metrics = engine.metrics
        trips_before, aux_before = metrics.source_round_trips, metrics.aux_hits
        served = serve(effect)
        if served is not None:
            answer, _cost = served
            channels = getattr(scheduler(), "channels", {})
            channel = channels.get(effect.source_name)
            records.append(
                {
                    "at": engine.clock.now,
                    "answered_at": answer.answered_at,
                    "source": effect.source_name,
                    "tier": (
                        "aux" if metrics.aux_hits > aux_before else "cache"
                    ),
                    "trips": metrics.source_round_trips - trips_before,
                    "channel_in_flight": (
                        channel.in_flight if channel is not None else 0
                    ),
                    "channel_waiting": (
                        len(channel.waiting) if channel is not None else 0
                    ),
                }
            )
        return served

    engine.serve_local = recording
    return records


class CommitOrderGuard:
    """A UMQ listener checking, after every mutation, that the queued
    messages of each ``(source, relation)`` stay in commit (seqno)
    order — Definition 4's semantic dependencies, which no reorder,
    merge or requeue may invert.  Inversions are collected, not raised,
    so a run reports all of them."""

    def __init__(self, umq: UpdateMessageQueue, violations: list) -> None:
        self._umq = umq
        self.violations = violations

    def _check(self, *_args) -> None:
        latest: dict[tuple[str, str], object] = {}
        for message in self._umq.messages():
            for relation in message.touched_relations():
                key = (message.source, relation)
                ahead = latest.get(key)
                if ahead is None or ahead.seqno < message.seqno:
                    latest[key] = message
                    continue
                inversion = (ahead.describe(), message.describe())
                if inversion not in self.violations:
                    self.violations.append(inversion)

    umq_received = umq_removed_head = umq_reordered = _check
    umq_removed_unit = umq_requeued_front = _check


@contextmanager
def commit_order_guarded():
    """Guard every UMQ built inside the block (recovered and per-shard
    queues included); yields the list of inversions seen."""
    violations: list = []
    original = UpdateMessageQueue.__init__

    def guarded_init(umq, *args, **kwargs):
        original(umq, *args, **kwargs)
        umq.add_listener(CommitOrderGuard(umq, violations))

    UpdateMessageQueue.__init__ = guarded_init
    try:
        yield violations
    finally:
        UpdateMessageQueue.__init__ = original


@contextmanager
def verdict_guarded():
    """Check every skipped ready-set scan of a parallel scheduler built
    or run inside the block: wherever the no-pick verdict holds, run the
    full scan anyway and assert it finds nothing.  The skipped round's
    flag-check and detection charges are paid live, as in a full round,
    so no charge is replayed and the scan is all there is to check.
    Yields a one-entry list counting the skips checked."""
    skips = [0]
    original = ParallelScheduler._verdict_holds

    def guarded(scheduler, inputs):
        holds = original(scheduler, inputs)
        if holds:
            skips[0] += 1
            unit = scheduler._pick_unit()
            assert unit is None, (
                f"the skipped scan would dispatch {unit.describe()}"
            )
        return holds

    ParallelScheduler._verdict_holds = guarded
    try:
        yield skips
    finally:
        ParallelScheduler._verdict_holds = original


def _keeps_a_row(query, alias, delta) -> bool:
    """``delta`` has a validated row ``BagProbe.keep`` keeps."""
    try:
        probe = BagProbe(query, alias, delta.schema)
        return bool(probe.keep(delta.validated_items()))
    except RelationalError:
        return False


@contextmanager
def recorded_compensations():
    """One record per ``compensate_answer`` call inside the block: the
    leaked updates it was handed, how many of them and of the self-join
    extras have a row the probe keeps, and how many ``BagProbe.parts``
    calls it made.  Rebinds the name where ``vm`` and ``va`` call it."""
    records: list[dict] = []
    shipped, parts = compensation.compensate_answer, BagProbe.parts
    inside: list[dict] = []

    def recording(answer, query, alias, leaked, log=None, extra=None):
        deltas = [message.payload.delta for message in leaked]
        deltas += extra or []
        record = {
            "leaked": len(leaked),
            "admitted": sum(_keeps_a_row(query, alias, d) for d in deltas),
            "parts": 0,
        }
        records.append(record)
        inside.append(record)
        try:
            return shipped(answer, query, alias, leaked, log, extra)
        finally:
            inside.pop()

    def counted_parts(probe, items):
        if inside:
            inside[-1]["parts"] += 1
        return parts(probe, items)

    vm.compensate_answer = va.compensate_answer = recording
    BagProbe.parts = counted_parts
    try:
        yield records
    finally:
        vm.compensate_answer = va.compensate_answer = shipped
        BagProbe.parts = parts
