"""The one-pass read replay against the per-read loop (hypothesis).

``ReadFrontEnd.serve`` draws, orders and serves reads in one tight pass
per shard; ``tests/read_oracle.serve_reference`` is the loop it
replaced, one pointer advance and one ``staleness_of`` per read.  Over
generated install logs — 1-4 shards, 1-4 views, out-of-order and
batched installs, commits sharing an instant, reads before the first
install — both must return the same ``ReadReport`` (``==``, so bit for
bit) and charge the same ``Metrics``, at both consistency levels, for
``span == 0``, ``scan_fraction`` in {0, 0.1, 1} and 1 or 4 read servers.

Two seeded mutations must each fail the property on its own: an arrival
order sorted on ``at`` alone (reads sharing an instant left in draw
order), and a committed level that charges a scan at the shard's latest
version instead of the capped one.
"""

import inspect
import textwrap

import pytest
from hypothesis import Phase, example, given, settings
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


workloads = st.builds(
    ReadWorkload,
    count=st.integers(0, 300),
    seed=st.integers(0, 2**16),
    scan_fraction=st.sampled_from((0.0, 0.1, 1.0)),
    start=st.sampled_from((0.0, 0.5, 2.0)),
    horizon=st.one_of(st.none(), st.sampled_from((0.0, 2.0, 4.0))),
)


def _front_end(logs, servers):
    install_logs_, view_shard, initial_sizes, horizon = logs
    cost = CostModel()
    cost.read_servers = servers
    return ReadFrontEnd.from_install_logs(
        install_logs_, view_shard, initial_sizes, cost, horizon
    )


#: every read at one instant on one view: only the tuple order decides
#: which of a point and a scan queues behind the other
ALL_AT_ONE_INSTANT = (
    ({0: [InstallRecord(1.0, {"V0": 30}, (("src1", 0, 0.5),))]},
     {"V0": 0}, {"V0": 10}, 2.0),
    ReadWorkload(count=40, seed=7, scan_fraction=0.1, start=0.5, horizon=0.5),
    1,
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
)


@given(
    logs=install_logs(), workload=workloads, servers=st.sampled_from((1, 4))
)
@example(*ALL_AT_ONE_INSTANT)
@example(*LAGGING_CUT)
@settings(max_examples=150, deadline=None)
def test_serve_equals_the_per_read_loop(logs, workload, servers):
    for level in CONSISTENCY_LEVELS:
        served, reference = Metrics(), Metrics()
        report = _front_end(logs, servers).serve(workload, level, served)
        expected = serve_reference(
            _front_end(logs, servers), workload, level, reference
        )
        assert report == expected, level
        assert served == reference, level


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


MUTATIONS = {
    "ties_left_in_draw_order": {
        "serve": [("reads.sort()\n", "pass\n")],
    },
    "committed_scan_at_latest_version": {
        "_committed_steps": [
            (
                "versions.append(max(0, min(cap - 1, version)))",
                "versions.append((max(0, min(cap - 1, version)), version))",
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
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_each_seeded_mutation_fails_the_property(monkeypatch, mutation):
    for name, edits in MUTATIONS[mutation].items():
        monkeypatch.setattr(
            ReadFrontEnd, name, _mutated(vars(ReadFrontEnd)[name], edits)
        )
    # the pinned draws alone: each mutation fails on its own example
    prop = test_serve_equals_the_per_read_loop
    monkeypatch.setattr(
        prop,
        "_hypothesis_internal_use_settings",
        settings(
            prop._hypothesis_internal_use_settings, phases=(Phase.explicit,)
        ),
    )
    with pytest.raises(AssertionError):
        test_serve_equals_the_per_read_loop()
