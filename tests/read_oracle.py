"""The read front end's displaced per-read loop, kept as the specification.

``serve_reference`` is ``ReadFrontEnd.serve`` as it was before the
one-pass replay: reads are generated as ``(at, view, scan)`` tuples,
sorted as tuples, and each one advances three pointers (shard version,
global cut, watermark cap) and asks ``staleness_of`` for its staleness.
``tests/property/test_read_replay.py`` holds ``serve`` equal to it, report
and ``Metrics`` charges, bit for bit.  ``version_at``, ``watermark_at``
and ``staleness_of`` are the timeline lookups only this loop and the
timeline tests read.
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_right

from repro.frontend.reads import (
    CONSISTENCY_LEVELS,
    READ_COMMITTED_VERSION,
    ReadFrontEnd,
    ReadReport,
    ReadWorkload,
    ShardTimeline,
)
from repro.sim.metrics import Metrics


def version_at(timeline: ShardTimeline, at: float) -> int:
    """Newest version installed at or before ``at``."""
    return bisect_right(timeline.times, at) - 1


def watermark_at(timeline: ShardTimeline, at: float) -> float:
    return timeline.watermarks[version_at(timeline, at)]


def staleness_of(timeline: ShardTimeline, version: int, at: float) -> float:
    """Age of the oldest delivered commit invisible at ``version`` as
    observed at time ``at`` (0.0 when fully fresh)."""
    index = timeline.first_invisible[version]
    if index < len(timeline.commits) and timeline.commits[index] <= at:
        return at - timeline.commits[index]
    return 0.0


def serve_reference(
    front_end: ReadFrontEnd,
    workload: ReadWorkload,
    level: str,
    metrics: Metrics | None = None,
) -> ReadReport:
    """Serve one seeded workload at ``level``, one read at a time."""
    if level not in CONSISTENCY_LEVELS:
        raise ValueError(
            f"unknown consistency level {level!r}; "
            f"choose from {CONSISTENCY_LEVELS}"
        )
    horizon = (
        workload.horizon
        if workload.horizon is not None
        else front_end.default_horizon
    )
    span = max(horizon - workload.start, 0.0)
    views = sorted(front_end.view_shard)
    rng = random.Random(workload.seed)
    uniform = rng.random
    pick_view = rng.randrange
    view_count = len(views)
    # Generate, then bucket reads per owning shard: the queueing
    # simulation needs arrival order per shard.
    per_shard: dict[int, list[tuple[float, str, bool]]] = {
        shard_id: [] for shard_id in front_end.timelines
    }
    scan_fraction = workload.scan_fraction
    start = workload.start
    for _ in range(workload.count):
        at = start + uniform() * span
        view = views[pick_view(view_count)]
        per_shard[front_end.view_shard[view]].append(
            (at, view, uniform() < scan_fraction)
        )
    committed = level == READ_COMMITTED_VERSION
    if committed:
        global_times, global_watermarks = front_end._global_watermark_steps()
    latencies: list[float] = []
    total_wait = 0.0
    total_staleness = 0.0
    max_staleness = 0.0
    stale_reads = 0
    cost = front_end.cost
    point_cost = cost.point_read()
    scan_base = cost.read_scan_base
    scan_per_tuple = cost.read_scan_per_tuple
    servers = max(1, cost.read_servers)
    for shard_id, reads in per_shard.items():
        if not reads:
            continue
        reads.sort()
        timeline = front_end.timelines[shard_id]
        times = timeline.times
        watermarks = timeline.watermarks
        view_sizes = timeline.view_sizes
        free_at = [0.0] * servers  # heap of server-free times
        # Every lookup target is monotone in ``at``, so the three binary
        # searches are pointers that only advance.
        version_count = len(times)
        version_ptr = 0  # newest version with times[ptr] <= at
        cut_ptr = 0  # steps into the global watermark function
        cap_count = len(global_times) if committed else 0
        cap_ptr = 0  # count of watermarks <= current global cut
        for at, view, scan in reads:
            while (
                version_ptr + 1 < version_count
                and times[version_ptr + 1] <= at
            ):
                version_ptr += 1
            version = version_ptr
            if committed:
                while (
                    cut_ptr + 1 < cap_count
                    and global_times[cut_ptr + 1] <= at
                ):
                    cut_ptr += 1
                cut = global_watermarks[cut_ptr]
                while cap_ptr < version_count and watermarks[cap_ptr] <= cut:
                    cap_ptr += 1
                # Newest version <= ``version`` whose watermark does not
                # exceed the global cut.
                version = max(0, min(cap_ptr - 1, version))
            staleness = staleness_of(timeline, version, at)
            if staleness > 0.0:
                stale_reads += 1
                total_staleness += staleness
                if staleness > max_staleness:
                    max_staleness = staleness
            if scan:
                service = (
                    scan_base + view_sizes[view][version] * scan_per_tuple
                )
            else:
                service = point_cost
            earliest = free_at[0]
            wait = earliest - at if earliest > at else 0.0
            heapq.heapreplace(free_at, at + wait + service)
            total_wait += wait
            latencies.append(wait + service)
    latencies.sort()
    count = len(latencies)
    report = ReadReport(
        level=level,
        count=count,
        p50_latency=latencies[count // 2] if count else 0.0,
        p99_latency=latencies[min(count - 1, (count * 99) // 100)]
        if count
        else 0.0,
        mean_latency=sum(latencies) / count if count else 0.0,
        max_latency=latencies[-1] if count else 0.0,
        mean_wait=total_wait / count if count else 0.0,
        mean_staleness=total_staleness / count if count else 0.0,
        max_staleness=max_staleness,
        stale_fraction=stale_reads / count if count else 0.0,
    )
    if metrics is not None:
        metrics.reads_served += count
        metrics.read_latency_time += sum(latencies)
        metrics.read_wait_time += total_wait
        metrics.stale_reads += stale_reads
        metrics.staleness_time += total_staleness
    return report
