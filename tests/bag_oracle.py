"""The local tier's displaced implementations, kept as specifications.

* ``table_part_effects`` — how a signed bag met the kernel before
  ``BagProbe``: every sign part became a ``Table`` and went through
  ``execute`` (plan lookup, hash index, scan), and an empty bag was
  evaluated over an empty table.  ``tests/property/test_bag_probe.py``
  holds ``BagProbe`` equal to it, raises included.
* ``normalized_query_key`` — the snapshot cache's key text before it
  keyed on ``query.prepared``: two prepared keys must be equal exactly
  when these texts are (``tests/property/test_cache_key.py``).
* ``counted_kernel`` — every kernel execute a bag can reach: the
  compiled bag path (``CompiledPlan.execute_rows``) and the table path
  (``executor.execute``, the name ``BagProbe`` calls it by).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable

from repro.relational import executor
from repro.relational.delta import Row
from repro.relational.executor import execute
from repro.relational.plan import CompiledPlan
from repro.relational.query import SPJQuery
from repro.relational.schema import RelationSchema
from repro.relational.table import Table


def table_part_effects(
    query: SPJQuery,
    alias: str,
    schema: RelationSchema,
    items: Iterable[tuple[Row, int]],
) -> list[tuple[int, Table]]:
    """Probe ``query`` over each sign part of ``items``: ``(sign, answer)``.

    An empty bag is evaluated over an empty table: schema drift still
    surfaces, and the caller learns the answer's schema.
    """
    items = list(items)
    positive = {row: count for row, count in items if count > 0}
    negative = {row: -count for row, count in items if count < 0}
    parts = [
        (sign, Table.from_counts(schema, part))
        for sign, part in ((1, positive), (-1, negative))
        if part
    ] or [(1, Table(schema))]
    return [(sign, execute(query, {alias: part})) for sign, part in parts]


def normalized_query_key(query: SPJQuery) -> str:
    """Canonical cache key text for a maintenance query: IN-list values
    render sorted (``InPredicate.sql``), so two probes built from the
    same value sets normalize to the same key."""
    return query.sql()


@contextmanager
def counted_kernel(fail_at: int | None = None):
    """Yield the list of kernel executes made inside the block; with
    ``fail_at``, the execute of that number (1-based) raises a
    ``QueryError`` instead of running."""
    from repro.relational.errors import QueryError

    calls: list = []
    rows_original = CompiledPlan.execute_rows
    table_original = executor.execute

    def counted(run):
        def kernel(*arguments):
            calls.append(arguments)
            if len(calls) == fail_at:
                raise QueryError("drift")
            return run(*arguments)

        return kernel

    CompiledPlan.execute_rows = counted(rows_original)
    executor.execute = counted(table_original)
    try:
        yield calls
    finally:
        CompiledPlan.execute_rows = rows_original
        executor.execute = table_original
