"""View maintenance (VM) for data updates: the probe sweep.

Given a data update Δ on one relation, the maintenance process (the
``M(DU)`` of Definition 1):

1. reads the view definition,
2. walks the view's join graph breadth-first from the updated relation,
   probing each other relation with an IN-list built from the partially
   joined result so far (the per-source queries ``r(DS1)..r(DSn)``),
3. compensates every answer for concurrent data updates that leaked in
   (SWEEP-style, see :mod:`repro.maintenance.compensation`),
4. assembles the view delta locally with the bag-semantics executor, and
5. returns the delta for the scheduler to write and commit (``w(MV)``,
   ``c(MV)``).

Steps 1 and 2 depend on the view version only, so the decomposition is
prepared (:func:`~repro.maintenance.decompose.probe_sweep`): an update
brings its delta table and the IN-list values, nothing else is rebuilt.

The process is a generator of effects; a concurrent schema change makes
one of the probes raise
:class:`~repro.sources.errors.BrokenQueryError`, which propagates out of
the generator — the scheduler's in-exec detection.
"""

from __future__ import annotations

from ..relational.delta import Delta
from ..relational.table import Table
from ..relational.executor import execute, signed_parts
from ..sim.effects import SourceQuery
from ..sim.engine import MaintenanceProcess, QueryAnswer
from ..sources.messages import DataUpdate
from ..views.definition import ViewDefinition
from ..views.umq import MaintenanceUnit, UpdateMessageQueue
from .compensation import CompensationLog, compensate_answer
from .decompose import probe_sweep


def _abs_table(delta: Delta) -> Table:
    return Table.from_counts(
        delta.schema,
        {row: abs(count) for row, count in delta.validated_items()},
    )


def _distinct_values(table: Table) -> list[frozenset]:
    """The distinct values of every column of ``table``."""
    columns: list[set] = [set() for _ in range(table.schema.arity)]
    for row, _count in table.items():
        for values, value in zip(columns, row):
            values.add(value)
    return [frozenset(values) for values in columns]


def maintain_data_update(
    view: ViewDefinition,
    unit: MaintenanceUnit,
    umq: UpdateMessageQueue,
    log: CompensationLog | None = None,
) -> MaintenanceProcess:
    """Maintenance process for a single data update unit.

    Returns (via StopIteration) the signed view delta, or ``None`` when
    the update does not involve the view.
    """
    message = unit.head_message
    payload = message.payload
    assert isinstance(payload, DataUpdate)
    query = view.query

    occurrences = [
        ref
        for ref in query.relations
        if ref.source == message.source and ref.relation == payload.relation
    ]
    if not occurrences or payload.delta.is_empty():
        return None
    occurrence_aliases = [ref.alias for ref in occurrences]

    total: Delta | None = None
    for k_ref in occurrences:
        delta_alias = k_ref.alias
        bindings: dict[str, Table] = {delta_alias: _abs_table(payload.delta)}

        for step in probe_sweep(query, delta_alias):
            ref = step.ref
            alias = ref.alias
            # IN-list values come from the partial join over what we
            # have so far (``bindings`` holds exactly the visited
            # aliases); a disconnected relation is read with a full scan.
            value_sets: list[frozenset] = []
            if step.partial is not None:
                value_sets = _distinct_values(execute(step.partial, bindings))
            source_query = step.source_query(value_sets)

            # Indexed IN-list probes may coalesce with probes from other
            # concurrently maintained units against the same source.
            # Both probes and scans bind a single relation, so the
            # snapshot cache can patch them forward locally.
            answer = yield SourceQuery(
                ref.source,
                source_query,
                batchable=step.partial is not None,
                cacheable=True,
            )
            assert isinstance(answer, QueryAnswer)

            leaked = umq.leaked(
                unit, ref.source, ref.relation, answer.answered_at
            )
            # Self-join rule: probes of *later* occurrences of the
            # updated relation must see the pre-update state, so the
            # update's own delta is compensated away there; earlier
            # occurrences keep the post-update state.
            extra: list[Delta] = []
            if alias in occurrence_aliases:
                own_position = occurrence_aliases.index(delta_alias)
                alias_position = occurrence_aliases.index(alias)
                if alias_position > own_position:
                    extra.append(payload.delta)

            bindings[alias] = compensate_answer(
                answer.table, source_query, alias, leaked, log, extra
            )

        # Every workload DU is single-signed: the absent sign would run
        # the whole view query over an empty table, so it is skipped.
        # The delta's validated items are adopted, not validated again.
        schema = payload.delta.schema
        for sign, part in signed_parts(payload.delta.validated_items()):
            table = Table.from_counts(schema, part)
            result = execute(query, {**bindings, delta_alias: table})
            if total is None:
                total = Delta(result.schema)
            for row, count in result.items():
                total.add(row, sign * count)

    return total
