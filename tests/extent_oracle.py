"""The extent oracle: every view, judged by stdlib ``sqlite3`` over a
replay of what its sources committed.

Strong consistency (Definition 7, Theorem 2): after every install, each
view's extent equals its *current* definition evaluated over the sources
after a legal prefix of the updates.  Per world, the oracle

* loads the sources' initial relations (read once, before the run) into
  one ``:memory:`` database — relation names must be unique across the
  world's sources, since ``view.query.sql()`` names relations bare;
* **at every install** (``per_install``), snapshots each view's extent
  and definition through the public ``SimEngine.record_install`` seam;
  :meth:`ExtentOracle.check_installs` then replays the install log's
  prefix — units in install order, a unit's messages by ``(committed_at,
  source, seqno)`` — and compares each snapshot's bag with the
  database's answer to its ``query.sql()``;
* **at quiescence** (:meth:`ExtentOracle.check_quiescent`), replays the
  sources' whole committed logs into a fresh database and compares each
  view's current extent the same way.

The replay is the oracle's own SQL: a data update is bag ``INSERT`` /
``DELETE ... LIMIT n``, a schema change is one ``ALTER TABLE`` / ``DROP
TABLE`` / ``CREATE TABLE`` per transformation.  It never evaluates
through the package's executor or plan compiler, never commits through a
``DataSource``, and never reaches the sqlite source backend (which is
itself under test): ``tests/integration/test_strong_consistency.py``
refuses those imports and calls here.

The evaluator is pluggable in the engine-injection shape of
``create_engine(url, module=...)``: ``module`` is any DB-API module whose
``connect(":memory:")`` opens an empty database.

A world is anything holding ``engine`` and ``manager`` (a testbed, a
shard, the facade), as :func:`~repro.core.stack.build_stack` built it;
:func:`watch` finds the worlds of a testbed.  A process run is judged
through its inline twin (``shard_processes=0``), which
``tests/property/test_runtime_equivalence.py`` holds equal to it.
"""

from __future__ import annotations

import sqlite3
from collections import Counter

from repro.experiments.testbed import ShardedTestbed
from repro.sources.messages import (
    AddAttribute,
    CreateRelation,
    DataUpdate,
    DropAttribute,
    DropRelation,
    RenameAttribute,
    RenameRelation,
    RestructureRelations,
)


class ExtentMismatch(AssertionError):
    """A view's extent is not its definition over the replayed sources.
    ``where`` names the install (``"install 3 of 20"``) or
    ``"quiescence"``."""

    def __init__(self, where: str, detail: str) -> None:
        super().__init__(f"at {where}: {detail}")
        self.where = where


def _quoted(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def _create(db, schema, rows) -> None:
    """A table with no declared column types (no affinity converts a
    value), holding ``rows`` as a bag."""
    table = _quoted(schema.name)
    columns = ", ".join(map(_quoted, schema.attribute_names))
    db.execute(f"CREATE TABLE {table} ({columns})")
    marks = ", ".join("?" for _ in schema.attribute_names)
    db.executemany(f"INSERT INTO {table} VALUES ({marks})", rows)


def _delete(db, delta, row, count: int) -> None:
    """Delete ``count`` copies of ``row`` (NULL-safe match); a source
    never commits the delete of a copy it does not hold."""
    relation = delta.schema.name
    table = _quoted(relation)
    match = " AND ".join(
        f"{_quoted(column)} IS ?" for column in delta.schema.attribute_names
    )
    deleted = db.execute(
        f"DELETE FROM {table} WHERE rowid IN "
        f"(SELECT rowid FROM {table} WHERE {match} LIMIT ?)",
        (*row, count),
    ).rowcount
    assert deleted == count, (
        f"replay: {relation} held {deleted} of the {count} copies of "
        f"{row!r} its source deleted"
    )


def _replay(db, update) -> None:
    """Apply one committed source update to ``db`` as SQL."""
    if isinstance(update, DataUpdate):
        for row, count in update.delta.items():
            if count > 0:
                marks = ", ".join("?" for _ in row)
                db.executemany(
                    f"INSERT INTO {_quoted(update.relation)} "
                    f"VALUES ({marks})",
                    [row] * count,
                )
            elif count < 0:
                _delete(db, update.delta, row, -count)
    elif isinstance(update, RenameRelation):
        db.execute(
            f"ALTER TABLE {_quoted(update.old)} "
            f"RENAME TO {_quoted(update.new)}"
        )
    elif isinstance(update, RenameAttribute):
        db.execute(
            f"ALTER TABLE {_quoted(update.relation)} RENAME COLUMN "
            f"{_quoted(update.old)} TO {_quoted(update.new)}"
        )
    elif isinstance(update, DropAttribute):
        db.execute(
            f"ALTER TABLE {_quoted(update.relation)} "
            f"DROP COLUMN {_quoted(update.attribute)}"
        )
    elif isinstance(update, AddAttribute):
        table = _quoted(update.relation)
        column = _quoted(update.attribute.name)
        db.execute(f"ALTER TABLE {table} ADD COLUMN {column}")
        db.execute(f"UPDATE {table} SET {column} = ?", (update.default,))
    elif isinstance(update, DropRelation):
        db.execute(f"DROP TABLE {_quoted(update.relation)}")
    elif isinstance(update, CreateRelation):
        _create(db, update.schema, update.rows)
    elif isinstance(update, RestructureRelations):
        for relation in update.dropped:
            db.execute(f"DROP TABLE {_quoted(relation)}")
        _create(db, update.new_schema, update.new_rows)
    else:
        raise TypeError(f"no replay for {type(update).__name__}")


class ExtentOracle:
    """Judges one world (see the module docstring).  Build it after the
    world and before its run: the sources' relations at construction are
    the replay's starting state."""

    def __init__(self, world, module=sqlite3, per_install: bool = True):
        self._world = world
        self._module = module
        self._initial = [
            (table.schema, table.rows())
            for source in world.engine.sources.values()
            for table in source.catalog
        ]
        names = [schema.name for schema, _rows in self._initial]
        assert len(names) == len(set(names)), (
            f"relation names repeat across the world's sources: {names}"
        )
        #: per install, ``{view name: (query, extent bag)}``
        self.snapshots: list[dict] | None = None
        if per_install:
            self.snapshots = []
            engine = world.engine
            record = engine.record_install

            def recording(view_sizes, messages):
                record(view_sizes, messages)
                self.snapshots.append(self._views())

            engine.record_install = recording

    def _views(self) -> dict:
        return {
            view.view.name: (
                view.view.query, Counter(dict(view.mv.extent.items()))
            )
            for view in self._world.manager.view_managers()
        }

    def _database(self):
        db = self._module.connect(":memory:")
        for schema, rows in self._initial:
            _create(db, schema, rows)
        return db

    def _compare(self, db, views: dict, where: str) -> None:
        for name, (query, extent) in views.items():
            expected = Counter(db.execute(query.sql()).fetchall())
            if extent != expected:
                raise ExtentMismatch(
                    where,
                    f"view {name!r} holds {extent.total()} rows, "
                    f"{query.sql()!r} answers {expected.total()}; "
                    f"missing {dict(expected - extent)}, "
                    f"extra {dict(extent - expected)}",
                )

    def check_installs(self) -> int:
        """Replay the install log's prefixes; returns the number of
        install states judged."""
        engine = self._world.engine
        log = engine.install_log
        assert self.snapshots is not None, "built with per_install=False"
        assert len(self.snapshots) == len(log)
        db = self._database()
        try:
            for index, (record, views) in enumerate(
                zip(log, self.snapshots), start=1
            ):
                for source, seqno, _at in sorted(
                    record.messages, key=lambda ref: (ref[2], ref[0], ref[1])
                ):
                    message = engine.sources[source].log[seqno - 1]
                    assert message.seqno == seqno
                    _replay(db, message.payload)
                self._compare(db, views, f"install {index} of {len(log)}")
        finally:
            db.close()
        return len(log)

    def check_quiescent(self) -> None:
        """Replay every committed message; compare the views as they are."""
        db = self._database()
        try:
            for source in self._world.engine.sources.values():
                for message in source.log:
                    _replay(db, message.payload)
            self._compare(db, self._views(), "quiescence")
        finally:
            db.close()

    def check(self) -> int:
        """Every install state (when recorded), then quiescence; returns
        the number of install states judged."""
        judged = 0 if self.snapshots is None else self.check_installs()
        self.check_quiescent()
        return judged


def watch(testbed, **options) -> list[ExtentOracle]:
    """One oracle per world of ``testbed``: a testbed or facade is one
    world, an inline sharded testbed one per shard.  ``options`` go to
    :class:`ExtentOracle`."""
    if isinstance(testbed, ShardedTestbed):
        if testbed.warehouse is None:
            raise TypeError(
                "a process run is judged through its inline twin "
                "(shard_processes=0)"
            )
        return [
            ExtentOracle(shard, **options)
            for shard in testbed.warehouse.shards
        ]
    return [ExtentOracle(testbed, **options)]


def check_all(oracles) -> int:
    """:meth:`ExtentOracle.check` each; returns the install states
    judged in total."""
    return sum(oracle.check() for oracle in oracles)
