"""Workload intents: materialization against live schemas, determinism."""

import random

import pytest

from repro.relational.schema import RelationSchema
from repro.relational.types import AttributeType
from repro.sources.messages import (
    DataUpdate,
    DropAttribute,
    RenameRelation,
)
from repro.sources.source import DataSource
from repro.sources.workload import (
    DeleteRandomRow,
    DropRandomAttribute,
    FixedUpdate,
    InsertRandomRow,
    RenameRandomRelation,
    Workload,
    WorkloadItem,
    random_row,
    random_value,
)
from tests.builders import poisson_arrival_times

R = RelationSchema.of(
    "R",
    [
        ("k", AttributeType.INT),
        ("s", AttributeType.STRING),
        ("f", AttributeType.FLOAT),
        ("b", AttributeType.BOOL),
    ],
)


@pytest.fixture
def source() -> DataSource:
    source = DataSource("s")
    source.create_relation(R, [(1, "a", 1.0, True), (2, "b", 2.0, False)])
    return source


class TestValueGeneration:
    def test_random_value_types(self):
        rng = random.Random(1)
        assert isinstance(random_value(rng, AttributeType.INT), int)
        assert isinstance(random_value(rng, AttributeType.FLOAT), float)
        assert isinstance(random_value(rng, AttributeType.STRING), str)
        assert isinstance(random_value(rng, AttributeType.BOOL), bool)

    def test_random_row_matches_schema(self):
        row = random_row(random.Random(1), R)
        assert len(row) == 4
        R.attributes[0].type.validate(row[0])

    def test_determinism(self):
        assert random_row(random.Random(5), R) == random_row(
            random.Random(5), R
        )


class TestInsertIntent:
    def test_insert_valid_row(self, source):
        update = InsertRandomRow(random.Random(1)).materialize(source)
        assert isinstance(update, DataUpdate)
        source.commit(update)  # applies cleanly

    def test_key_factory_controls_first_column(self, source):
        intent = InsertRandomRow(random.Random(1), key_factory=lambda r: 42)
        update = intent.materialize(source)
        row = next(iter(update.delta.rows()))
        assert row[0] == 42

    def test_specific_relation(self, source):
        update = InsertRandomRow(
            random.Random(1), relation="R"
        ).materialize(source)
        assert update.relation == "R"

    def test_empty_source_returns_none(self):
        assert InsertRandomRow(random.Random(1)).materialize(
            DataSource("empty")
        ) is None

    def test_stale_relation_falls_back(self, source):
        update = InsertRandomRow(
            random.Random(1), relation="Gone"
        ).materialize(source)
        assert update.relation == "R"


class TestDeleteIntent:
    def test_deletes_existing_row(self, source):
        update = DeleteRandomRow(random.Random(2)).materialize(source)
        assert isinstance(update, DataUpdate)
        source.commit(update)
        assert source.row_count("R") == 1

    def test_empty_table_returns_none(self):
        empty = DataSource("e")
        empty.create_relation(R)
        assert DeleteRandomRow(random.Random(1)).materialize(empty) is None

    def test_key_range_restricts_victims(self, backend="memory"):
        source = _keyed_source(backend)
        intent = DeleteRandomRow(random.Random(3), key_range=(2, 3))
        seen = set()
        for _ in range(12):
            update = intent.materialize(source)
            seen.add(next(iter(update.delta.rows())))
        assert seen == {(2, "b", 2.0, False), (3, "c", 3.0, True)}

    def test_key_range_with_no_candidates_returns_none(self, backend="memory"):
        intent = DeleteRandomRow(random.Random(3), "R", key_range=(99, 120))
        state = intent.rng.getstate()
        assert intent.materialize(_keyed_source(backend)) is None
        # an impossible delete draws no victim index
        assert intent.rng.getstate() == state

    def test_key_range_on_sqlite(self):
        """The sqlite twins: counted and picked in SQL."""
        self.test_key_range_restricts_victims("sqlite")
        self.test_key_range_with_no_candidates_returns_none("sqlite")

    def test_key_range_picks_one_victim_on_both_backends(self):
        """Count and pick agree across backends: copies count once, a
        NULL key lies in no range, order is first occurrence — also
        after a row is deleted to nothing and comes back."""
        victims = {}
        for backend in ("memory", "sqlite"):
            source = _keyed_source(backend)
            source.commit(DataUpdate.delete(R, [(2, "b", 2.0, False)]))
            source.commit(DataUpdate.insert(R, [(2, "b", 2.0, False)]))
            assert source.row_count("R", key_range=(1, 3)) == 4
            assert source.row_count("R", distinct=True, key_range=(1, 3)) == 3
            assert source.row_count("R", distinct=True, key_range=(4, 6)) == 0
            assert [
                source.distinct_row("R", index, (1, 3)) for index in range(3)
            ] == [
                (1, "a", 1.0, True),
                (3, "c", 3.0, True),
                (2, "b", 2.0, False),
            ]
            rng = random.Random(11)
            victims[backend] = [
                DeleteRandomRow(rng, key_range=(2, 3)).materialize(source)
                for _ in range(8)
            ]
        assert victims["memory"] == victims["sqlite"]

    @pytest.mark.parametrize("key_range", [None, (1, 3), (2, 2), (4, 6)])
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_victims_per_seed_are_those_count_then_pick_chose(
        self, backend, key_range
    ):
        """One pick per delete draws the victims counting then picking
        by index drew, on both backends: same seed, same rows."""
        source, twin = _keyed_source(backend), _keyed_source(backend)
        intent = DeleteRandomRow(random.Random(5), "R", key_range=key_range)
        rng = random.Random(5)
        for _ in range(4):
            count = twin.row_count("R", distinct=True, key_range=key_range)
            update = intent.materialize(source)
            if not count:
                assert update is None
                continue
            row = twin.distinct_row("R", rng.randrange(count), key_range)
            assert update == DataUpdate.delete(R, [row])
            for copy in (source, twin):
                copy.commit(update)
        assert intent.rng.getstate() == rng.getstate()

    def test_a_key_range_delete_reads_the_relation_once(self, monkeypatch):
        """In memory, the first key-range delete reads the relation in
        one pass; the source keeps its candidates, so the next delete,
        committed after the first, reads it not at all."""
        from repro.relational.table import Table

        source, reads = _keyed_source("memory"), []
        items = Table.items
        monkeypatch.setattr(
            Table, "items", lambda table: reads.append(table) or items(table)
        )
        intent = DeleteRandomRow(random.Random(3), "R", key_range=(1, 3))
        update = intent.materialize(source)
        assert update is not None
        assert len(reads) == 1
        source.commit(update)
        assert intent.materialize(source) is not None
        assert len(reads) == 1


def _keyed_source(backend: str) -> DataSource:
    from repro.sources.sqlite_source import SqliteDataSource

    source = (SqliteDataSource if backend == "sqlite" else DataSource)("s")
    source.create_relation(
        R,
        [
            (1, "a", 1.0, True),
            (2, "b", 2.0, False),
            (None, "n", 0.0, True),
            (3, "c", 3.0, True),
            (1, "a", 1.0, True),
            (7, "cold", 7.0, False),
        ],
    )
    return source


class TestHotKeyDomainDeletes:
    def test_domain_deletes_are_not_degenerate(self):
        """Regression: under ``key_domain`` the delete stream must pick
        victims *inside* the domain.  Deletes used to draw uniformly
        from the full relation, so on a large relation with a narrow
        hot domain nearly every delete hit a cold key — the hot-key
        workload silently lost its delete effects."""
        from repro.core.strategies import PESSIMISTIC
        from repro.experiments.testbed import build_testbed

        testbed = build_testbed(PESSIMISTIC, tuples_per_relation=200)
        workload = testbed.random_du_workload(
            60, start=0.0, interval=0.01, seed=5,
            insert_fraction=0.5, key_domain=8,
        )
        deletes = [
            item for item in workload.items
            if isinstance(item.intent, DeleteRandomRow)
        ]
        assert deletes, "workload drew no deletes at all"
        hot = 0
        for item in deletes:
            update = item.intent.materialize(
                testbed.engine.sources[item.source_name]
            )
            if update is None:
                continue
            hot += 1
            for row in update.delta.rows():
                assert 1 <= row[0] <= 8
        # Most deletes actually fire inside the hot domain (seeded rows
        # cover every key, so candidates always exist at the start).
        assert hot >= len(deletes) // 2


class TestSchemaChangeIntents:
    def test_drop_random_attribute_protects_key(self, source):
        for seed in range(10):
            update = DropRandomAttribute(random.Random(seed)).materialize(
                source
            )
            assert isinstance(update, DropAttribute)
            assert update.attribute != "k"

    def test_drop_without_protection_may_take_first(self, source):
        seen = set()
        for seed in range(30):
            update = DropRandomAttribute(
                random.Random(seed), protect_first=False
            ).materialize(source)
            seen.add(update.attribute)
        assert "k" in seen

    def test_rename_relation_versions(self, source):
        update = RenameRandomRelation(random.Random(1)).materialize(source)
        assert isinstance(update, RenameRelation)
        assert update.new == "R__v2"
        source.commit(update)
        update2 = RenameRandomRelation(random.Random(1)).materialize(source)
        assert update2.old == "R__v2" and update2.new == "R__v3"

    def test_fixed_update_passthrough(self, source):
        payload = DropAttribute("R", "s")
        assert FixedUpdate(payload).materialize(source) is payload


class TestWorkload:
    def test_sorted_by_time(self):
        workload = Workload()
        workload.add(2.0, "s", FixedUpdate(DropAttribute("R", "s")))
        workload.add(1.0, "s", FixedUpdate(DropAttribute("R", "f")))
        assert [item.at for item in workload] == [1.0, 2.0]

    def test_span(self):
        workload = Workload()
        workload.add(5.0, "s", FixedUpdate(DropAttribute("R", "s")))
        workload.add(1.0, "s", FixedUpdate(DropAttribute("R", "f")))
        times = [item.at for item in workload.items]
        assert max(times) - min(times) == 4.0
        assert [item.at for item in workload] == [1.0, 5.0]

    def test_extend_and_len(self):
        workload = Workload()
        workload.extend(
            [WorkloadItem(0.0, "s", FixedUpdate(DropAttribute("R", "s")))]
        )
        assert len(workload) == 1


class TestPoissonArrivals:
    """The stress suite's arrival stream (a test-side builder)."""

    def test_count_and_monotonicity(self):
        times = poisson_arrival_times(random.Random(1), rate=2.0, count=50)
        assert len(times) == 50
        assert all(b > a for a, b in zip(times, times[1:]))
        assert times[0] > 0.0

    def test_mean_interarrival_close_to_rate(self):
        rate = 4.0
        times = poisson_arrival_times(
            random.Random(2), rate=rate, count=2000
        )
        mean_gap = times[-1] / len(times)
        assert abs(mean_gap - 1.0 / rate) < 0.02

    def test_start_offset(self):
        times = poisson_arrival_times(
            random.Random(3), rate=1.0, count=5, start=100.0
        )
        assert all(at > 100.0 for at in times)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            poisson_arrival_times(random.Random(1), rate=0.0, count=1)


class TestDeletesAcrossBackends:
    """A delete intent asks its source for counts and for the n-th
    distinct row; it never pulls a relation out of SQLite to pick."""

    def test_seeded_stream_commits_one_log_on_both_backends(
        self, monkeypatch
    ):
        from repro.core.strategies import PESSIMISTIC
        from repro.experiments.testbed import build_testbed, make_du_workload
        from repro.sources.sqlite_source import SqliteCatalog

        logs = {}
        for backend in ("memory", "sqlite"):
            testbed = build_testbed(
                PESSIMISTIC, tuples_per_relation=60, backend=backend
            )
            testbed.engine.schedule_workload(
                make_du_workload(60, 80, 0.0, 0.2, insert_fraction=0.4, seed=3)
            )
            if backend == "sqlite":
                monkeypatch.setattr(
                    SqliteCatalog, "table", lambda *_: pytest.fail("scanned")
                )
            testbed.run()
            monkeypatch.undo()
            logs[backend] = [
                (message.source, message.seqno, message.payload)
                for source in testbed.engine.sources.values()
                for message in source.log
            ]
            assert testbed.check_consistency()
        assert logs["memory"] == logs["sqlite"]
        deletes = [
            payload
            for _source, _seqno, payload in logs["sqlite"]
            if any(count < 0 for _row, count in payload.delta.items())
        ]
        assert len(deletes) > 30

    def test_copies_are_deleted_by_one_statement_per_row(self):
        from repro.relational.errors import DataError
        from repro.sources.errors import UpdateApplicationError
        from repro.sources.sqlite_source import SqliteDataSource

        row, other = (1, "x", 1.5, True), (2, None, None, False)
        for make in (DataSource, SqliteDataSource):
            source = make("s")
            source.create_relation(R, [row, other, row, row, other])
            update = DataUpdate.delete(R, [row, row, other])
            source.commit(update)
            table = source.catalog.table("R")
            assert (table.count(row), table.count(other)) == (1, 1)
            assert source.row_count("R") == 2
            assert source.row_count("R", distinct=True) == 2
            assert source.distinct_row("R", 1) == other
            # short by one copy: refused (each backend with its own error)
            with pytest.raises((UpdateApplicationError, DataError)):
                source.commit(DataUpdate.delete(R, [row, row]))
