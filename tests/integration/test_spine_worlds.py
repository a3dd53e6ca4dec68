"""The measurement spine's six workloads at seed 5, judged by the sqlite
extent oracle at quiescence.

Each world is built read-only through the spine's own ``prepare``, at a
quarter of its full update counts (the scale ``run.py`` measures at),
then run, and every view of every world is compared with stdlib
``sqlite3`` over a replay of the sources' committed logs.
``shard_procs`` runs its worker processes' specs under the inline
coordinator (``shard_processes=0``), its twin that
``tests/property/test_runtime_equivalence.py`` holds equal to the
process run.  ``shard_durable`` crashes and recovers once per shard.
"""

import pytest

from benchmarks.spine.workloads import WORKLOADS, prepare_shard_procs
from tests.extent_oracle import check_all, watch

SEED = 5
SCALE = 0.25


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_spine_world_matches_sqlite_at_quiescence(name, tmp_path):
    if name == "shard_procs":
        prepared = prepare_shard_procs(
            SEED, SCALE, tmp_path, shard_processes=0
        )
    else:
        prepared = WORKLOADS[name].prepare(SEED, SCALE, tmp_path)
    oracles = watch(prepared.testbed, per_install=False)
    prepared.testbed.run()
    if name == "shard_durable":  # the judged worlds are recovered ones
        assert all(
            shard.crash_reports
            for shard in prepared.testbed.warehouse.shards
        )
    check_all(oracles)
