"""The bucketed read replay against the per-read loop (hypothesis).

``ReadFrontEnd.serve`` draws each shard's reads into time buckets and
sorts and serves one bucket at a time; ``tests/read_oracle.
serve_reference`` is the loop it replaced, every read held, sorted once,
one pointer advance and one ``staleness_of`` per read.  Over generated
install logs — 1-4 shards, 1-4 views, out-of-order and batched installs,
commits sharing an instant, reads before the first install — both must
return the same ``ReadReport`` (``==``, so bit for bit) and charge the
same ``Metrics``, at both consistency levels, for ``span == 0``,
``horizon < start``, spans of one or two float steps and subnormal
spans, ``scan_fraction`` in {0, 0.1, 1} and 1 or 4 read servers.  The
bucket size is drawn too (``BUCKET_READS`` patched down to 1, 3 or 16
reads), so most draws fill many buckets.

Four seeded mutations must each fail the property on its own pinned
draw: an arrival order sorted on ``at`` alone (reads sharing an instant
left in draw order), a committed level that charges a scan at the
shard's latest version instead of the capped one, a bucket's reads
served unsorted, and buckets served out of order.
"""

import inspect
import textwrap
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.frontend import reads
from repro.frontend.reads import (
    CONSISTENCY_LEVELS,
    ReadFrontEnd,
    ReadWorkload,
)
from repro.sim.costs import CostModel
from repro.sim.engine import InstallRecord
from repro.sim.metrics import Metrics
from tests.read_oracle import serve_reference

#: few distinct instants, so commits and installs share them
COMMIT_TIMES = st.sampled_from((0.5, 1.0, 1.5, 2.0, 3.0))
INSTALL_GAPS = st.sampled_from((0.0, 0.25, 0.5, 1.0))
SOURCES = st.sampled_from(("src1", "src2"))


@st.composite
def install_logs(draw):
    """``(install_logs, view_shard, initial_sizes, horizon)`` of a
    quiesced run, as ``ReadFrontEnd.from_install_logs`` takes them."""
    shard_count = draw(st.integers(1, 4))
    views = [f"V{index}" for index in range(draw(st.integers(1, 4)))]
    view_shard = {
        view: draw(st.integers(0, shard_count - 1)) for view in views
    }
    initial_sizes = {view: draw(st.integers(0, 40)) for view in views}
    logs = {}
    horizon = 0.0
    for shard_id in sorted(set(view_shard.values())):
        owned = [view for view in views if view_shard[view] == shard_id]
        delivered = [
            (draw(SOURCES), seqno, draw(COMMIT_TIMES))
            for seqno in range(draw(st.integers(0, 6)))
        ]
        pending = draw(st.permutations(delivered))
        at = draw(st.sampled_from((0.5, 1.0, 2.0)))
        records = []
        while pending:
            size = draw(st.integers(1, 3))
            batch, pending = pending[:size], pending[size:]
            sizes = {
                view: draw(st.integers(0, 40))
                for view in owned
                if draw(st.booleans())
            }
            records.append(InstallRecord(at, sizes, tuple(batch)))
            at += draw(INSTALL_GAPS)
        logs[shard_id] = records
        horizon = max(horizon, at)
    return logs, view_shard, initial_sizes, horizon


#: ``(start, horizon)``: the warehouse horizon, spans of zero (and
#: ``horizon < start``), and spans so small that the draws collapse onto
#: one or two instants — one float step at 1.0, a subnormal span whose
#: bucket scale overflows, and one whose scale is finite but huge
TIME_RANGES = st.one_of(
    st.tuples(
        st.sampled_from((0.0, 0.5, 2.0)),
        st.one_of(st.none(), st.sampled_from((0.0, 2.0, 4.0))),
    ),
    st.sampled_from(((1.0, 1.0 + 2**-52), (0.0, 5e-324), (0.0, 1e-308))),
)


@st.composite
def workloads(draw):
    start, horizon = draw(TIME_RANGES)
    return ReadWorkload(
        count=draw(st.integers(0, 300)),
        seed=draw(st.integers(0, 2**16)),
        scan_fraction=draw(st.sampled_from((0.0, 0.1, 1.0))),
        start=start,
        horizon=horizon,
    )


#: reads per bucket: one read, a few, and the shipped size (one bucket
#: for every count drawn here)
BUCKET_SIZES = st.sampled_from((1, 3, 16, reads.BUCKET_READS))


def _front_end(logs, servers):
    install_logs_, view_shard, initial_sizes, horizon = logs
    cost = CostModel()
    cost.read_servers = servers
    return ReadFrontEnd.from_install_logs(
        install_logs_, view_shard, initial_sizes, cost, horizon
    )


def _buckets_of(bucket_reads):
    """``BUCKET_READS`` as the installed ``serve`` reads it (a seeded
    mutation's ``serve`` has a namespace of its own)."""
    return mock.patch.dict(
        vars(ReadFrontEnd)["serve"].__globals__, BUCKET_READS=bucket_reads
    )


def _assert_serves_like_the_loop(logs, workload, servers, bucket_reads):
    for level in CONSISTENCY_LEVELS:
        served, reference = Metrics(), Metrics()
        with _buckets_of(bucket_reads):
            report = _front_end(logs, servers).serve(workload, level, served)
        expected = serve_reference(
            _front_end(logs, servers), workload, level, reference
        )
        assert report == expected, level
        assert served == reference, level


#: every read at one instant on one view: only the tuple order decides
#: which of a point and a scan queues behind the other
ALL_AT_ONE_INSTANT = (
    ({0: [InstallRecord(1.0, {"V0": 30}, (("src1", 0, 0.5),))]},
     {"V0": 0}, {"V0": 10}, 2.0),
    ReadWorkload(count=40, seed=7, scan_fraction=0.1, start=0.5, horizon=0.5),
    1,
    reads.BUCKET_READS,
)
#: shard 1 holds the cut at 0 while shard 0 has grown ``V0``: committed
#: scans must read the initial extent's size
LAGGING_CUT = (
    (
        {
            0: [InstallRecord(1.0, {"V0": 30}, (("src1", 0, 0.5),))],
            1: [InstallRecord(3.0, {"V1": 6}, (("src2", 0, 0.5),))],
        },
        {"V0": 0, "V1": 1},
        {"V0": 10, "V1": 5},
        4.0,
    ),
    ReadWorkload(count=40, seed=3, scan_fraction=1.0, start=1.5, horizon=2.5),
    4,
    reads.BUCKET_READS,
)
#: one server, reads packed densely enough to queue, eight buckets of
#: about ten reads each, drawn in no particular order within a bucket:
#: a bucket served unsorted, or the buckets served backwards, move both
#: the waits and the versions served
QUEUED_BUCKETS = (
    (
        {
            0: [
                InstallRecord(1.0, {"V0": 30}, (("src1", 0, 0.5),)),
                InstallRecord(1.5, {"V0": 60}, (("src1", 1, 1.2),)),
            ]
        },
        {"V0": 0},
        {"V0": 10},
        2.0,
    ),
    ReadWorkload(count=80, seed=5, scan_fraction=0.5, start=0.9, horizon=1.7),
    1,
    10,
)


@given(
    logs=install_logs(),
    workload=workloads(),
    servers=st.sampled_from((1, 4)),
    bucket_reads=BUCKET_SIZES,
)
@example(*ALL_AT_ONE_INSTANT)
@example(*LAGGING_CUT)
@example(*QUEUED_BUCKETS)
@settings(max_examples=150, deadline=None)
def test_serve_equals_the_per_read_loop(logs, workload, servers, bucket_reads):
    _assert_serves_like_the_loop(logs, workload, servers, bucket_reads)


# ----------------------------------------------------------------------
# the property bites
# ----------------------------------------------------------------------


def _mutated(function, edits):
    """``function`` of ``repro.frontend.reads`` recompiled with each
    ``old`` text of its source replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(function))
    for old, new in edits:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    namespace = dict(vars(reads))
    exec(compile(source, reads.__file__, "exec"), namespace)
    return namespace[function.__name__]


#: mutation -> (the pinned draw it fails on, its edits per method)
MUTATIONS = {
    "ties_left_in_draw_order": (
        ALL_AT_ONE_INSTANT,
        {"serve": [("reads.sort()\n", "pass\n")]},
    ),
    "bucket_served_unsorted": (
        QUEUED_BUCKETS,
        {
            "serve": [
                (
                    "sorted(zip(ats[index], kinds[index]), key=at_of)",
                    "list(zip(ats[index], kinds[index]))",
                ),
                ("reads.sort()\n", "pass\n"),
            ]
        },
    ),
    "buckets_served_out_of_order": (
        QUEUED_BUCKETS,
        {
            "serve": [
                (
                    "for index in range(buckets):",
                    "for index in range(last, -1, -1):",
                )
            ]
        },
    ),
    "committed_scan_at_latest_version": (
        LAGGING_CUT,
        {
            "_committed_steps": [
                (
                    "versions.append(max(0, min(cap - 1, version)))",
                    "versions.append("
                    "(max(0, min(cap - 1, version)), version))",
                )
            ],
            "serve": [
                (
                    "(services[version], stale_from[version])",
                    "(services[version[1]], stale_from[version[0]])"
                    " if committed else"
                    " (services[version], stale_from[version])",
                )
            ],
        },
    ),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_each_seeded_mutation_fails_the_property(monkeypatch, mutation):
    pinned, methods = MUTATIONS[mutation]
    for name, edits in methods.items():
        monkeypatch.setattr(
            ReadFrontEnd, name, _mutated(vars(ReadFrontEnd)[name], edits)
        )
    with pytest.raises(AssertionError):
        _assert_serves_like_the_loop(*pinned)


# ----------------------------------------------------------------------
# the bucket index at its edges
# ----------------------------------------------------------------------


#: one view on one shard, installs inside and after the read window
ONE_VIEW = QUEUED_BUCKETS[0]


def test_reads_on_the_horizon_are_clamped_into_the_last_bucket(monkeypatch):
    # A span of one float step at 1.0: ``start + u * span`` rounds onto
    # the horizon for about half the draws, whose index is one past the
    # last bucket until the clamp puts them back.
    workload = ReadWorkload(count=50, seed=11, start=1.0, horizon=1.0 + 2**-52)
    _assert_serves_like_the_loop(ONE_VIEW, workload, 1, 5)
    unclamped = _mutated(
        vars(ReadFrontEnd)["serve"], [("index = last\n", "pass\n")]
    )
    monkeypatch.setattr(ReadFrontEnd, "serve", unclamped)
    with pytest.raises(IndexError):
        _assert_serves_like_the_loop(ONE_VIEW, workload, 1, 5)


@pytest.mark.parametrize("span", [5e-324, 1e-310, 1e-308, 2.2e-308])
def test_a_subnormal_span_never_overflows_the_bucket_index(span):
    # ``buckets / span`` overflows for most of these: the replay falls
    # back to one bucket instead of an infinite (or NaN) index.
    for count in (1, 2, 3, 40):
        workload = ReadWorkload(count=count, seed=count, horizon=span)
        _assert_serves_like_the_loop(ONE_VIEW, workload, 1, 1)


def test_the_subnormal_guard_bites(monkeypatch):
    unguarded = _mutated(
        vars(ReadFrontEnd)["serve"],
        [("if not scale < inf:", "if False:")],
    )
    monkeypatch.setattr(ReadFrontEnd, "serve", unguarded)
    workload = ReadWorkload(count=40, seed=3, horizon=5e-324)
    with pytest.raises((OverflowError, ValueError)):
        _assert_serves_like_the_loop(ONE_VIEW, workload, 1, 1)


@pytest.mark.parametrize(
    "start, horizon", [(0.0, float("inf")), (float("nan"), 2.0)]
)
def test_a_time_range_that_is_not_finite_is_rejected(start, horizon):
    workload = ReadWorkload(count=5, start=start, horizon=horizon)
    with pytest.raises(ValueError, match="finite"):
        _front_end(ONE_VIEW, 1).serve(workload)


def test_a_shard_of_more_than_128_views_keeps_every_kind():
    # ``kind = 2 * view index + scan`` outgrows a byte past 128 views on
    # one shard: the kinds then go to an array of wider slots.
    views = [f"V{index:03}" for index in range(130)]
    logs = (
        {0: [InstallRecord(1.0, {"V129": 30}, (("src1", 0, 0.5),))]},
        dict.fromkeys(views, 0),
        dict.fromkeys(views, 10),
        2.0,
    )
    workload = ReadWorkload(count=600, seed=1, scan_fraction=0.5)
    _assert_serves_like_the_loop(logs, workload, 1, 16)
