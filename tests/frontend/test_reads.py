"""The read-serving front end: timelines, watermarks, consistency
levels, staleness and queueing latency."""

import gc
import tracemalloc
from bisect import bisect_right

import pytest

from repro.core.strategies import PESSIMISTIC
from repro.experiments.testbed import build_sharded_testbed
from repro.frontend.reads import (
    CONSISTENCY_LEVELS,
    READ_COMMITTED_VERSION,
    READ_LATEST,
    ReadFrontEnd,
    ReadWorkload,
    ShardTimeline,
)
from repro.sim.costs import CostModel
from repro.sim.engine import InstallRecord
from repro.sim.metrics import Metrics
from tests.read_oracle import (
    serve_reference,
    staleness_of,
    version_at,
    watermark_at,
)


def _record(at, size, *messages, view="A"):
    return InstallRecord(at, {view: size}, tuple(messages))


def _bisecting_staleness(timeline, watermark: float, at: float) -> float:
    """Age of the oldest commit above ``watermark`` delivered by ``at``,
    found by bisection: ``staleness_of`` wherever no two commits share
    an instant at the frontier."""
    index = bisect_right(timeline.commits, watermark)
    if index < len(timeline.commits) and timeline.commits[index] <= at:
        return at - timeline.commits[index]
    return 0.0


class TestShardTimeline:
    def test_initial_version_only(self):
        timeline = ShardTimeline([], {"A": 10})
        assert version_at(timeline, 0.0) == 0
        assert version_at(timeline, 99.0) == 0
        assert watermark_at(timeline, 99.0) == 0.0
        assert timeline.view_sizes["A"] == [10]

    def test_in_order_installs_advance_watermark(self):
        timeline = ShardTimeline(
            [
                _record(1.5, 11, ("src1", 1, 1.0)),
                _record(2.5, 12, ("src1", 2, 2.0)),
            ],
            {"A": 10},
        )
        assert timeline.times == [0.0, 1.5, 2.5]
        assert timeline.watermarks == [0.0, 1.0, 2.0]
        assert timeline.view_sizes["A"] == [10, 11, 12]
        assert version_at(timeline, 2.0) == 1
        assert watermark_at(timeline, 2.0) == 1.0

    def test_out_of_order_install_blocks_watermark_until_gap_fills(self):
        # seqno 2 (commit 2.0) installs before seqno 1 (commit 1.0):
        # the watermark stays at 0 until the prefix is complete.
        timeline = ShardTimeline(
            [
                _record(1.0, 11, ("src1", 2, 2.0)),
                _record(2.0, 12, ("src1", 1, 1.0)),
            ],
            {"A": 10},
        )
        assert timeline.watermarks == [0.0, 0.0, 2.0]

    def test_batched_install_covers_both_commits(self):
        timeline = ShardTimeline(
            [_record(3.0, 14, ("src1", 1, 1.0), ("src1", 2, 2.0))],
            {"A": 10},
        )
        assert timeline.watermarks == [0.0, 2.0]

    def test_staleness_ages_the_oldest_invisible_commit(self):
        timeline = ShardTimeline(
            [_record(1.5, 11, ("src1", 1, 1.0))], {"A": 10}
        )
        # At time 1.2 the commit at 1.0 is delivered but not installed.
        assert staleness_of(timeline, 0, 1.2) == pytest.approx(0.2)
        # Fully fresh once installed.
        assert staleness_of(timeline, 1, 2.0) == 0.0
        # A commit in the future of the read is not staleness yet.
        assert staleness_of(timeline, 0, 0.5) == 0.0

    def test_frontier_between_commits_sharing_an_instant(self):
        # Both commits are at 1.0; after the first install the frontier
        # sits between them.  The watermark (1.0) cannot say which of
        # the two it passed, so staleness reads the frontier itself.
        timeline = ShardTimeline(
            [
                _record(1.5, 11, ("src1", 1, 1.0)),
                _record(3.0, 12, ("src2", 1, 1.0)),
            ],
            {"A": 10},
        )
        assert timeline.watermarks == [0.0, 1.0, 1.0]
        assert timeline.first_invisible == [0, 1, 2]
        assert staleness_of(timeline, 1, 2.0) == 1.0
        assert staleness_of(timeline, 2, 4.0) == 0.0
        # ``serve`` reads the same rule: every read in [2, 2.5) lands on
        # version 1 and is stale by ``at - 1.0``.
        frontend = ReadFrontEnd({0: timeline}, {"A": 0}, CostModel(), 2.5)
        report = frontend.serve(
            ReadWorkload(count=200, seed=4, start=2.0, horizon=2.5)
        )
        assert report.stale_fraction == 1.0
        assert 1.0 <= report.mean_staleness < 1.5


def _two_shard_frontend(servers=4):
    # Shard 0 maintains A briskly; shard 1 lags on B — the global
    # watermark is pinned by the laggard.
    timelines = {
        0: ShardTimeline(
            [
                _record(1.5, 11, ("src1", 1, 1.0)),
                _record(2.5, 12, ("src1", 2, 2.0)),
            ],
            {"A": 10},
        ),
        1: ShardTimeline(
            [_record(4.0, 6, ("src2", 1, 1.2), view="B")], {"B": 5}
        ),
    }
    cost = CostModel()
    cost.read_servers = servers
    return ReadFrontEnd(timelines, {"A": 0, "B": 1}, cost, 5.0)


class TestReadFrontEnd:
    def test_global_watermark_is_min_across_shards(self):
        frontend = _two_shard_frontend()
        times, watermarks = frontend._global_watermark_steps()
        cut = dict(zip(times, watermarks))
        assert cut[2.5] == 0.0  # shard 1 has installed nothing yet
        assert cut[4.0] == pytest.approx(1.2)

    def test_committed_level_serves_older_version_than_latest(self):
        frontend = _two_shard_frontend()
        # Reads land only on A (shard 0) around t=3: latest serves
        # version 2 (fresh), committed is cut back to version 0 by the
        # lagging shard and pays staleness from commit 1.0 onward.
        frontend.view_shard = {"A": 0}
        workload = ReadWorkload(
            count=500, seed=3, scan_fraction=0.0, start=2.9, horizon=3.0
        )
        latest = frontend.serve(workload, READ_LATEST)
        committed = frontend.serve(workload, READ_COMMITTED_VERSION)
        assert latest.mean_staleness == 0.0
        assert committed.stale_fraction == 1.0
        assert committed.mean_staleness == pytest.approx(1.95, abs=0.06)

    def test_unknown_level_rejected(self):
        frontend = _two_shard_frontend()
        with pytest.raises(ValueError):
            frontend.serve(ReadWorkload(count=1), "read_dirty")

    def test_reads_need_a_view(self):
        frontend = ReadFrontEnd({}, {}, CostModel(), 1.0)
        assert frontend.serve(ReadWorkload(count=0)).count == 0
        with pytest.raises(ValueError):
            frontend.serve(ReadWorkload(count=1))

    def test_same_seed_same_report(self):
        frontend = _two_shard_frontend()
        workload = ReadWorkload(count=2000, seed=21)
        assert frontend.serve(workload) == frontend.serve(workload)

    def test_single_server_queues_simultaneous_arrivals(self):
        contended = _two_shard_frontend(servers=1).serve(
            ReadWorkload(count=3000, seed=5, start=1.0, horizon=1.001)
        )
        relaxed = _two_shard_frontend(servers=64).serve(
            ReadWorkload(count=3000, seed=5, start=1.0, horizon=1.001)
        )
        assert contended.mean_wait > relaxed.mean_wait
        assert contended.p99_latency > relaxed.p99_latency

    def test_scans_cost_more_than_points(self):
        frontend = _two_shard_frontend()
        points = frontend.serve(
            ReadWorkload(count=1000, seed=8, scan_fraction=0.0)
        )
        scans = frontend.serve(
            ReadWorkload(count=1000, seed=8, scan_fraction=1.0)
        )
        assert scans.mean_latency > points.mean_latency

    def test_metrics_charged_when_provided(self):
        frontend = _two_shard_frontend()
        metrics = Metrics()
        report = frontend.serve(
            ReadWorkload(count=400, seed=2), metrics=metrics
        )
        assert metrics.reads_served == report.count == 400
        assert metrics.stale_reads == round(
            report.stale_fraction * report.count
        )
        assert metrics.read_latency_time == pytest.approx(
            report.mean_latency * report.count
        )

    def test_report_summary_round_trips_keys(self):
        frontend = _two_shard_frontend()
        summary = frontend.serve(ReadWorkload(count=50, seed=1)).summary()
        for key in (
            "level",
            "count",
            "p50_latency",
            "p99_latency",
            "mean_staleness",
            "stale_fraction",
        ):
            assert key in summary


class TestForWarehouse:
    def test_front_end_built_from_real_run(self):
        testbed = build_sharded_testbed(
            PESSIMISTIC, shards=2, tuples_per_relation=40
        )
        testbed.schedule_du_workload(16, start=0.05, interval=0.05)
        testbed.run()
        frontend = testbed.read_front_end()
        assert set(frontend.view_shard) == set(
            testbed.warehouse.view_names()
        )
        report = frontend.serve(
            ReadWorkload(count=5000, seed=17), READ_LATEST
        )
        assert report.count == 5000
        assert report.p99_latency >= report.p50_latency >= 0.0
        committed = frontend.serve(
            ReadWorkload(count=5000, seed=17), READ_COMMITTED_VERSION
        )
        # The committed cut can only serve versions at or behind latest.
        assert committed.mean_staleness >= report.mean_staleness


class TestServeIsBisectFree:
    """The serving loop's micro-benchmark guarantee: reads are served
    in ``at`` order with monotone pointers, so ``serve()`` performs
    ZERO binary searches regardless of the read count — O(reads +
    versions) per shard, not O(reads * log versions)."""

    def _counting_frontend(self, monkeypatch):
        frontend = _two_shard_frontend()
        frontend._global_watermark_steps()  # warm the cached step fn
        from bisect import bisect_right as real_bisect_right

        import repro.frontend.reads as reads_module

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return real_bisect_right(*args, **kwargs)

        monkeypatch.setattr(reads_module, "bisect_right", counting)
        return frontend, calls

    @pytest.mark.parametrize("count", [200, 2000])
    def test_serve_performs_zero_bisect_calls(self, monkeypatch, count):
        frontend, calls = self._counting_frontend(monkeypatch)
        for level in (READ_LATEST, READ_COMMITTED_VERSION):
            report = frontend.serve(
                ReadWorkload(count=count, seed=17), level
            )
            assert report.count == count
        assert len(calls) == 0

    def test_staleness_of_matches_bisecting_staleness(self):
        timeline = ShardTimeline(
            [
                _record(1.5, 11, ("src1", 1, 1.0)),
                _record(2.5, 12, ("src1", 2, 2.0)),
            ],
            {"A": 10},
        )
        for version in range(len(timeline.times)):
            watermark = timeline.watermarks[version]
            for at in (0.5, 1.2, 1.8, 2.6, 4.0):
                assert staleness_of(timeline, version, at) == (
                    _bisecting_staleness(timeline, watermark, at)
                )

    def test_pointer_merge_matches_bisect_reports(self):
        # Belt and braces: the one-pass serve must produce the exact
        # same report the per-read loop (``serve_reference``) does over
        # a from-scratch front end on a real sharded run at both
        # consistency levels (the values, not just the complexity, are
        # preserved).
        testbed = build_sharded_testbed(
            PESSIMISTIC, shards=2, tuples_per_relation=40
        )
        testbed.schedule_du_workload(16, start=0.05, interval=0.05)
        testbed.run()
        frontend = testbed.read_front_end()
        again = testbed.read_front_end()
        for level in (READ_LATEST, READ_COMMITTED_VERSION):
            workload = ReadWorkload(count=3000, seed=23)
            assert frontend.serve(workload, level) == serve_reference(
                again, workload, level
            )


class TestReplayMemory:
    """The replay holds each read as two array slots and only one time
    bucket of reads as tuples: 100 000 reads peak near 1.6 MiB (one
    shard) and 1.1 MiB (four shards) above where the serve started.
    Holding every read as an ``(at, kind)`` tuple peaks near 10 MiB."""

    BOUND_MIB = 3.0

    @staticmethod
    def _one_view_per_shard(shards: int) -> ReadFrontEnd:
        views = {f"V{shard}": shard for shard in range(shards)}
        logs = {
            shard: [
                _record(
                    1.0 + 0.5 * step,
                    40 + step,
                    ("src1", 10 * shard + step, 0.5 + 0.5 * step),
                    view=f"V{shard}",
                )
                for step in range(8)
            ]
            for shard in range(shards)
        }
        return ReadFrontEnd.from_install_logs(
            logs, views, dict.fromkeys(views, 40), CostModel(), 10.0
        )

    @pytest.mark.parametrize("shards", [1, 4])
    def test_peak_of_one_serve_stays_under_the_bound(self, shards):
        front_end = self._one_view_per_shard(shards)
        for level in CONSISTENCY_LEVELS:
            front_end.serve(ReadWorkload(count=10), level)  # warm steps
            gc.collect()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                report = front_end.serve(
                    ReadWorkload(count=100_000, seed=17), level
                )
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert report.count == 100_000
            assert peak < self.BOUND_MIB * 2**20, (level, peak / 2**20)
