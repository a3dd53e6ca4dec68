"""Versioned read serving against the maintained view extents.

A seeded workload of point and scan reads is replayed after the run, so
reading never perturbs maintenance, against the version timeline each
engine records at unit-install time
(:class:`~repro.sim.engine.InstallRecord`), at ``read_latest`` or
``read_committed_version``.  docs/ALGORITHMS.md,
*The read-serving front end*, states the two levels, the staleness rule,
the queueing model, and why the bucketed replay equals the per-read loop
kept in ``tests/read_oracle.py``.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from heapq import heapreplace
from itertools import islice
from math import inf, isfinite
from operator import eq, itemgetter

from ..sim.costs import CostModel
from ..sim.engine import InstallRecord
from ..sim.metrics import Metrics

READ_LATEST = "read_latest"
READ_COMMITTED_VERSION = "read_committed_version"

CONSISTENCY_LEVELS = (READ_LATEST, READ_COMMITTED_VERSION)

#: reads per time bucket of ``ReadFrontEnd.serve`` across all shards:
#: the replay holds every read as two array slots and one bucket of
#: them as tuples (docs/ALGORITHMS.md, *The read-serving front end*)
BUCKET_READS = 512


class ShardTimeline:
    """One shard's install history, indexed for versioned reads.

    Version ``k`` (0-based; 0 is the initial load) is described by
    ``times[k]`` (virtual install time; 0.0 for the initial load),
    ``watermarks[k]`` (commit watermark visible at that version),
    ``first_invisible[k]`` (the install frontier: index in ``commits``
    of the oldest delivered commit not visible at that version) and a
    per-view extent cardinality.  ``commits`` is the commit-ordered
    stream the shard's router delivered, used for staleness.
    """

    def __init__(
        self,
        installs: list[InstallRecord],
        initial_sizes: dict[str, int],
    ) -> None:
        self.views = tuple(sorted(initial_sizes))
        self.times: list[float] = [0.0]
        self.watermarks: list[float] = [0.0]
        self.first_invisible: list[int] = [0]
        self.view_sizes: dict[str, list[int]] = {
            view: [size] for view, size in initial_sizes.items()
        }
        # Commit order over everything this shard installed; at
        # quiescence that equals everything its router delivered.
        ordered = sorted(
            {
                (committed_at, source, seqno)
                for record in installs
                for (source, seqno, committed_at) in record.messages
            }
        )
        self.commits: list[float] = [entry[0] for entry in ordered]
        position = {
            (source, seqno): index
            for index, (_, source, seqno) in enumerate(ordered)
        }
        installed = [False] * len(ordered)
        frontier = 0
        for record in installs:
            for source, seqno, _ in record.messages:
                installed[position[(source, seqno)]] = True
            while frontier < len(installed) and installed[frontier]:
                frontier += 1
            watermark = self.commits[frontier - 1] if frontier else 0.0
            self.times.append(record.at)
            self.watermarks.append(watermark)
            # The frontier itself, not a bisect of the watermark time:
            # two commits may share an instant on either side of it.
            self.first_invisible.append(frontier)
            for view in self.views:
                sizes = self.view_sizes[view]
                sizes.append(record.view_sizes.get(view, sizes[-1]))


@dataclass(frozen=True)
class ReadWorkload:
    """A seeded stream of point/scan reads over the registered views."""

    count: int = 1_000_000
    seed: int = 17
    scan_fraction: float = 0.1
    start: float = 0.0
    horizon: float | None = None  # default: the warehouse horizon


@dataclass(frozen=True)
class ReadReport:
    """Latency/staleness digest of one served read workload."""

    level: str
    count: int
    p50_latency: float
    p99_latency: float
    mean_latency: float
    max_latency: float
    mean_wait: float
    mean_staleness: float
    max_staleness: float
    stale_fraction: float

    def summary(self) -> dict[str, float]:
        return {
            "level": self.level,
            "count": self.count,
            "p50_latency": round(self.p50_latency, 9),
            "p99_latency": round(self.p99_latency, 9),
            "mean_latency": round(self.mean_latency, 9),
            "max_latency": round(self.max_latency, 9),
            "mean_wait": round(self.mean_wait, 9),
            "mean_staleness": round(self.mean_staleness, 6),
            "max_staleness": round(self.max_staleness, 6),
            "stale_fraction": round(self.stale_fraction, 6),
        }


@dataclass
class ReadFrontEnd:
    """Replays read workloads against recorded shard timelines."""

    timelines: dict[int, ShardTimeline]
    view_shard: dict[str, int]
    cost: CostModel
    default_horizon: float
    #: merged watermark step function: at virtual time ``t`` the global
    #: watermark is the min across shards (computed lazily)
    _global_times: list[float] = field(default_factory=list, repr=False)
    _global_watermarks: list[float] = field(default_factory=list, repr=False)

    @classmethod
    def from_install_logs(
        cls,
        install_logs: dict[int, list[InstallRecord]],
        view_shard: dict[str, int],
        initial_sizes: dict[str, int],
        cost: CostModel,
        horizon: float,
    ) -> "ReadFrontEnd":
        """Build from bare per-shard install logs, after the run reached
        quiescence — the process-parallel runtime ships these home at
        COLLECT time, so the front end needs no live warehouse at all.
        ``initial_sizes`` maps view name to the extent cardinality right
        after the initial load (captured at build time — the install
        log only records post-install sizes)."""
        shard_views: dict[int, list[str]] = {}
        for name, shard_id in view_shard.items():
            shard_views.setdefault(shard_id, []).append(name)
        timelines = {
            shard_id: ShardTimeline(
                install_logs[shard_id],
                {name: initial_sizes[name] for name in names},
            )
            for shard_id, names in shard_views.items()
        }
        return cls(timelines, dict(view_shard), cost, horizon)

    def _global_watermark_steps(self) -> tuple[list[float], list[float]]:
        """The min-across-shards watermark as a step function."""
        if self._global_times:
            return self._global_times, self._global_watermarks
        events = sorted(
            {
                at
                for timeline in self.timelines.values()
                for at in timeline.times
            }
        )
        times: list[float] = []
        watermarks: list[float] = []
        for at in events:
            value = min(
                timeline.watermarks[bisect_right(timeline.times, at) - 1]
                for timeline in self.timelines.values()
            )
            times.append(at)
            watermarks.append(value)
        self._global_times = times
        self._global_watermarks = watermarks
        return times, watermarks

    def _committed_steps(
        self, timeline: ShardTimeline
    ) -> tuple[list[float], list[int]]:
        """The version ``read_committed_version`` serves on ``timeline``
        as a step function of the read time: ``versions[0]`` before
        ``bounds[0]``, ``versions[i + 1]`` from ``bounds[i]`` on.  Each
        step is the newest version at or behind the shard's latest whose
        watermark does not exceed the global cut."""
        global_times, global_watermarks = self._global_watermark_steps()
        times, watermarks = timeline.times, timeline.watermarks
        bounds = sorted({*times[1:], *global_times[1:]})
        versions: list[int] = []
        version = cut = cap = 0
        for bound in (-inf, *bounds):
            while version + 1 < len(times) and times[version + 1] <= bound:
                version += 1
            while (
                cut + 1 < len(global_times)
                and global_times[cut + 1] <= bound
            ):
                cut += 1
            while (
                cap < len(watermarks)
                and watermarks[cap] <= global_watermarks[cut]
            ):
                cap += 1
            versions.append(max(0, min(cap - 1, version)))
        return bounds, versions

    def serve(
        self,
        workload: ReadWorkload,
        level: str = READ_LATEST,
        metrics: Metrics | None = None,
    ) -> ReadReport:
        """Serve one seeded workload at the given consistency level: draw
        every read into its shard's time bucket, then serve each shard's
        buckets in order, each sorted into arrival order and freed once
        served.  Why this equals the per-read loop (same draws, same
        order, same float sums) and what it holds in memory:
        docs/ALGORITHMS.md, *The read-serving front end*."""
        if level not in CONSISTENCY_LEVELS:
            raise ValueError(
                f"unknown consistency level {level!r}; "
                f"choose from {CONSISTENCY_LEVELS}"
            )
        horizon = (
            workload.horizon
            if workload.horizon is not None
            else self.default_horizon
        )
        start = workload.start
        span = max(horizon - start, 0.0)
        if not (isfinite(start) and isfinite(span)):
            raise ValueError(
                f"reads need a finite start and horizon, got {start!r} "
                f"and {horizon!r}"
            )
        # A read is stored in its shard's time bucket: its arrival time
        # in ``ats`` and its ``kind`` in ``kinds``, ``kind`` being
        # ``2 * i + scan`` for the shard's ``i``-th view by name, so
        # ``(at, kind)`` sorts like ``(at, view, scan)``.  The bucket
        # index is monotone in ``at`` alone, so serving the buckets in
        # order, each sorted, is serving every read in arrival order.
        buckets = max(1, -(-workload.count // BUCKET_READS))
        scale = buckets / span if span > 0.0 else inf
        if not scale < inf:  # a zero or subnormal span: one bucket
            buckets, scale = 1, 0.0
        last = buckets - 1
        widest = max(
            (len(timeline.views) for timeline in self.timelines.values()),
            default=0,
        )
        kind_code = "B" if 2 * widest <= 256 else "Q"
        per_shard: dict[int, tuple[list[array], list[array]]] = {
            shard_id: (
                [array("d") for _ in range(buckets)],
                [array(kind_code) for _ in range(buckets)],
            )
            for shard_id in self.timelines
        }
        targets = [
            (
                2 * self.timelines[shard_id].views.index(view),
                *per_shard[shard_id],
            )
            for view, shard_id in sorted(self.view_shard.items())
        ]
        view_count = len(targets)
        if workload.count and not view_count:
            raise ValueError("a read workload needs at least one view")
        rng = random.Random(workload.seed)
        uniform = rng.random
        bits = rng.getrandbits
        width = view_count.bit_length()
        scan_fraction = workload.scan_fraction
        for _ in range(workload.count):
            at = start + uniform() * span
            # ``Random._randbelow(view_count)`` inlined: the draw
            # ``randrange`` and ``choice`` make.
            drawn = bits(width)
            while drawn >= view_count:
                drawn = bits(width)
            kind, ats, kinds = targets[drawn]
            index = int((at - start) * scale)
            if index > last:  # rounding may land a read on the horizon
                index = last
            ats[index].append(at)
            kinds[index].append(kind + (uniform() < scan_fraction))
        committed = level == READ_COMMITTED_VERSION
        cost = self.cost
        point_cost = cost.point_read()
        scan_base = cost.read_scan_base
        scan_per_tuple = cost.read_scan_per_tuple
        servers = max(1, cost.read_servers)
        latencies: list[float] = []
        add_latency = latencies.append
        total_wait = 0.0
        total_staleness = 0.0
        max_staleness = 0.0
        stale_reads = 0
        at_of = itemgetter(0)
        for shard_id, (ats, kinds) in per_shard.items():
            if not any(ats):
                continue
            timeline = self.timelines[shard_id]
            if committed:
                bounds, versions = self._committed_steps(timeline)
            else:
                bounds = timeline.times[1:]
                versions = range(len(timeline.times))
            bounds.append(inf)
            commits = timeline.commits
            stale_from = [
                commits[index] if index < len(commits) else inf
                for index in timeline.first_invisible
            ]
            sizes = [timeline.view_sizes[view] for view in timeline.views]
            services = [
                [
                    service
                    for view_sizes in sizes
                    for service in (
                        point_cost,
                        scan_base + view_sizes[version] * scan_per_tuple,
                    )
                ]
                for version in range(len(timeline.times))
            ]
            steps = [
                (services[version], stale_from[version])
                for version in versions
            ]
            step = 0
            next_at = bounds[0]
            row, stale = steps[0]
            free_at = [0.0] * servers  # heap of server-free times
            for index in range(buckets):
                # Arrival order is ``(at, kind)`` order; reads sharing
                # an instant stay in draw order under the key sort.
                reads = sorted(zip(ats[index], kinds[index]), key=at_of)
                ats[index] = kinds[index] = None  # served below: free it
                later = map(at_of, islice(reads, 1, None))
                if any(map(eq, map(at_of, reads), later)):
                    reads.sort()
                for at, kind in reads:
                    if at >= next_at:
                        step += 1
                        while at >= bounds[step]:
                            step += 1
                        next_at = bounds[step]
                        row, stale = steps[step]
                    service = row[kind]
                    if stale < at:
                        staleness = at - stale
                        stale_reads += 1
                        total_staleness += staleness
                        if staleness > max_staleness:
                            max_staleness = staleness
                    earliest = free_at[0]
                    if earliest > at:
                        wait = earliest - at
                        heapreplace(free_at, at + wait + service)
                        total_wait += wait
                        add_latency(wait + service)
                    else:  # ``at + 0.0 + service`` and ``0.0 + service``
                        heapreplace(free_at, at + service)
                        add_latency(service)
        latencies.sort()
        count = len(latencies)
        total_latency = sum(latencies)
        report = ReadReport(
            level=level,
            count=count,
            p50_latency=latencies[count // 2] if count else 0.0,
            p99_latency=latencies[min(count - 1, (count * 99) // 100)]
            if count
            else 0.0,
            mean_latency=total_latency / count if count else 0.0,
            max_latency=latencies[-1] if count else 0.0,
            mean_wait=total_wait / count if count else 0.0,
            mean_staleness=total_staleness / count if count else 0.0,
            max_staleness=max_staleness,
            stale_fraction=stale_reads / count if count else 0.0,
        )
        if metrics is not None:
            metrics.reads_served += count
            metrics.read_latency_time += total_latency
            metrics.read_wait_time += total_wait
            metrics.stale_reads += stale_reads
            metrics.staleness_time += total_staleness
        return report
