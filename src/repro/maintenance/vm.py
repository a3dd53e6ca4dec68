"""View maintenance (VM) for data updates: the probe sweep.

Given a data update Δ on one relation, the maintenance process (the
``M(DU)`` of Definition 1):

1. reads the view definition,
2. walks the view's join graph breadth-first from the updated relation,
   probing each other relation with IN-lists read off the running join
   so far (the per-source queries ``r(DS1)..r(DSn)``),
3. compensates every answer for concurrent data updates that leaked in
   (SWEEP-style, see :mod:`repro.maintenance.compensation`),
4. folds each answer into the running join, which starts from Δ's
   signed rows: the view delta is its projection, one signed pass, and
5. returns the delta for the scheduler to write and commit (``w(MV)``,
   ``c(MV)``).

Steps 1 and 2 depend on the view version only, so the decomposition is
prepared (:func:`~repro.maintenance.decompose.probe_sweep`), and the
running join's stages are compiled once per schema; docs/ALGORITHMS.md
§"View maintenance: the probe sweep" says why both are exact.

The process is a generator of effects; a concurrent schema change makes
one of the probes raise
:class:`~repro.sources.errors.BrokenQueryError`, which propagates out of
the generator — the scheduler's in-exec detection.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..relational.delta import Delta
# Not called here any more; the spine's smoke test pins the binding
# (benchmarks/spine/test_spine_smoke.py).
from ..relational.executor import execute  # noqa: F401
from ..relational.plan import PlanCache
from ..sim.effects import SourceQuery
from ..sim.engine import MaintenanceProcess, QueryAnswer
from ..sources.messages import DataUpdate
from .compensation import CompensationLog, compensate_answer
from .decompose import probe_sweep

if TYPE_CHECKING:
    from ..views.definition import ViewDefinition
    from ..views.umq import MaintenanceUnit, UpdateMessageQueue


def _fold(stage, rows, answers, parameters):
    """Fold the pending ``(fold, answer)`` pairs into the running join."""
    for fold, table in answers:
        stage = stage.then(fold, table.schema)
        rows = stage.run(rows, table, parameters)
    answers.clear()
    return stage, rows


def maintain_data_update(
    view: ViewDefinition,
    unit: MaintenanceUnit,
    umq: UpdateMessageQueue,
    log: CompensationLog | None = None,
    plans: PlanCache | None = None,
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
        sweep = probe_sweep(query, delta_alias)
        stage = sweep.stage(payload.delta.schema)
        # The running join starts from the delta's signed rows; answers
        # wait in ``answers`` until a probe reads its IN-lists off it.
        rows = stage.begin(
            dict(payload.delta.validated_items()), sweep.parameters
        )
        answers: list = []

        for step in sweep.steps:
            ref = step.ref
            alias = ref.alias
            # A disconnected relation is read with a full scan.
            probed = bool(step.stage.joins)
            value_sets: list[frozenset] = []
            if probed:
                stage, rows = _fold(stage, rows, answers, sweep.parameters)
                value_sets = stage.in_lists(rows, step.stage)
            source_query = step.source_query(value_sets)

            # Indexed IN-list probes may coalesce with probes from other
            # concurrently maintained units against the same source.
            # Both probes and scans bind a single relation, so the
            # snapshot cache can patch them forward locally.
            answer = yield SourceQuery(
                ref.source,
                source_query,
                batchable=probed,
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

            answers.append((
                step.stage,
                compensate_answer(
                    answer.table, source_query, alias, leaked, log, extra,
                    plans,
                ),
            ))

        # One signed pass: every row carries its delta row's columns, so
        # no two delta rows meet before the projection.
        stage, rows = _fold(stage, rows, answers, sweep.parameters)
        schema, result = stage.result(rows, sweep.projection)
        if total is None:
            total = Delta(schema)
        for row, count in result.items():
            total.add(row, count)

    return total
