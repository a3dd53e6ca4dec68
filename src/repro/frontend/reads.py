"""Versioned read serving against the maintained view extents.

The warehouse exists to answer reads; the paper's evaluation (and every
prior PR here) only measured the *maintenance* side.  This module adds
the missing half: a seeded workload of point and scan reads replayed —
post hoc, so the read path never perturbs maintenance — against the
version timeline each engine records at unit-install time
(:class:`~repro.sim.engine.InstallRecord`).

Consistency levels
------------------

``read-latest``
    Serve the newest version installed on the owning shard at the read
    time.  Freshest answers; staleness is whatever the shard's
    maintenance lag happens to be.

``read-committed-version``
    Serve the newest version whose commit *watermark* (the longest
    prefix of the commit-ordered delivered stream fully installed) does
    not exceed the global watermark — the minimum across shards, the
    same coordinated-checkpoint-style cut per-shard recovery uses.
    Cross-shard consistent answers; staleness grows with the slowest
    shard.

Both levels report the same staleness definition: the age (read time
minus commit time) of the *oldest* delivered committed update not yet
visible in the served version, zero for a fully-fresh answer.

Latency is a queueing simulation: each shard serves reads with
``cost.read_servers`` concurrent servers; a read waits for a free
server, then pays the cost-model service time (``point_read``, or
``read_scan_base`` plus ``read_scan_per_tuple`` per row of the served
version's extent).  The p99 tail is therefore a real queueing effect,
not a constant.
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_right
from dataclasses import dataclass, field

from ..sim.costs import CostModel
from ..sim.engine import InstallRecord
from ..sim.metrics import Metrics

READ_LATEST = "read_latest"
READ_COMMITTED_VERSION = "read_committed_version"

CONSISTENCY_LEVELS = (READ_LATEST, READ_COMMITTED_VERSION)


class ShardTimeline:
    """One shard's install history, indexed for versioned reads.

    Version ``k`` (0-based; 0 is the initial load) is described by
    ``times[k]`` (virtual install time; 0.0 for the initial load),
    ``watermarks[k]`` (commit watermark visible at that version) and a
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
            for view in self.views:
                sizes = self.view_sizes[view]
                sizes.append(record.view_sizes.get(view, sizes[-1]))
        # Per-version index of the first delivered commit NOT visible at
        # that version's watermark: one bisect per *version* here buys
        # O(1) staleness per *read* in the serving loop (reads outnumber
        # versions by orders of magnitude — ABL-11 replays >= 10^6).
        self.first_invisible: list[int] = [
            bisect_right(self.commits, watermark)
            for watermark in self.watermarks
        ]

    def version_at(self, at: float) -> int:
        """Newest version installed at or before ``at``."""
        return bisect_right(self.times, at) - 1

    def watermark_at(self, at: float) -> float:
        return self.watermarks[self.version_at(at)]

    def staleness_of(self, version: int, at: float) -> float:
        """Age of the oldest delivered commit invisible at ``version``
        as observed at time ``at`` (0.0 when fully fresh).  O(1): the
        first-invisible commit was precomputed per version."""
        index = self.first_invisible[version]
        if index < len(self.commits) and self.commits[index] <= at:
            return at - self.commits[index]
        return 0.0


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
                timeline.watermark_at(at)
                for timeline in self.timelines.values()
            )
            times.append(at)
            watermarks.append(value)
        self._global_times = times
        self._global_watermarks = watermarks
        return times, watermarks

    def serve(
        self,
        workload: ReadWorkload,
        level: str = READ_LATEST,
        metrics: Metrics | None = None,
    ) -> ReadReport:
        """Serve one seeded workload at the given consistency level."""
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
        span = max(horizon - workload.start, 0.0)
        views = sorted(self.view_shard)
        rng = random.Random(workload.seed)
        uniform = rng.random
        pick_view = rng.randrange
        view_count = len(views)
        # Generate, then bucket reads per owning shard: the queueing
        # simulation needs arrival order per shard.
        per_shard: dict[int, list[tuple[float, str, bool]]] = {
            shard_id: [] for shard_id in self.timelines
        }
        scan_fraction = workload.scan_fraction
        start = workload.start
        for _ in range(workload.count):
            at = start + uniform() * span
            view = views[pick_view(view_count)]
            per_shard[self.view_shard[view]].append(
                (at, view, uniform() < scan_fraction)
            )
        committed = level == READ_COMMITTED_VERSION
        if committed:
            global_times, global_watermarks = self._global_watermark_steps()
        latencies: list[float] = []
        total_wait = 0.0
        total_staleness = 0.0
        max_staleness = 0.0
        stale_reads = 0
        point_cost = self.cost.point_read()
        scan_base = self.cost.read_scan_base
        scan_per_tuple = self.cost.read_scan_per_tuple
        servers = max(1, self.cost.read_servers)
        for shard_id, reads in per_shard.items():
            if not reads:
                continue
            reads.sort()
            timeline = self.timelines[shard_id]
            times = timeline.times
            watermarks = timeline.watermarks
            view_sizes = timeline.view_sizes
            free_at = [0.0] * servers  # heap of server-free times
            # Reads are served in ``at`` order and every lookup target
            # is monotone in ``at`` (install times, the global
            # watermark step function, and — because the cut is
            # nondecreasing — the watermark cap), so all three
            # per-read binary searches collapse to pointers that only
            # ever advance: O(reads + versions) per shard instead of
            # O(reads * log versions).  test_reads asserts the loop
            # performs zero bisect calls.
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
                    while (
                        cap_ptr < version_count
                        and watermarks[cap_ptr] <= cut
                    ):
                        cap_ptr += 1
                    # Newest version <= ``version`` whose watermark
                    # does not exceed the global cut — identical to
                    # ``bisect_right(watermarks, cut, hi=version + 1)
                    # - 1`` clamped at 0.
                    version = max(0, min(cap_ptr - 1, version))
                staleness = timeline.staleness_of(version, at)
                if staleness > 0.0:
                    stale_reads += 1
                    total_staleness += staleness
                    if staleness > max_staleness:
                        max_staleness = staleness
                if scan:
                    service = (
                        scan_base
                        + view_sizes[view][version] * scan_per_tuple
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
