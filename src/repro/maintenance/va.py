"""View adaptation (VA): making the extent match a rewritten definition.

Section 5 of the paper represents the adapted view as
``V' = (R1+ΔR1) ⋈ ... ⋈ (Rn+ΔRn)`` and computes the extent delta with
the telescoping sum of Equation 6:

    ΔV =  ΔR1 ⋈ R2   ⋈ ... ⋈ Rn
        + R1' ⋈ ΔR2  ⋈ ... ⋈ Rn
        + ...
        + R1' ⋈ R2'  ⋈ ... ⋈ ΔRn

(primes are post-change states).  That formula over locally bound
tables lives in ``tests/property/test_equation6.py``, which proves it
equal to the recompute diff for arbitrary inputs.

The *effectful* adaptation process (:func:`adapt_view`) obtains each
relation's post-change target state with one compensated scan per alias
and recomputes the extent — the same source reads Equation 6 needs
(every relation exactly once), assembled in the closed form.  For a
batch of *k* combined schema changes it performs *k* scan rounds (one
per change, mirroring DyDa's per-change adaptation queries inside the
atomic batch); only the final round's extent is installed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..relational.executor import execute
from ..relational.plan import PlanCache
from ..relational.table import Table
from ..sim.costs import CostModel
from ..sim.effects import Delay, SourceQuery
from ..sim.engine import MaintenanceProcess, QueryAnswer
from .compensation import CompensationLog, compensate_answer
from .decompose import scan_query

if TYPE_CHECKING:
    from ..views.definition import ViewDefinition
    from ..views.umq import MaintenanceUnit, UpdateMessageQueue


def adapt_view(
    view: ViewDefinition,
    unit: MaintenanceUnit,
    umq: UpdateMessageQueue,
    cost: CostModel,
    rounds: int = 1,
    log: CompensationLog | None = None,
    plans: PlanCache | None = None,
) -> MaintenanceProcess:
    """Adaptation process: returns the rebuilt extent for ``view``.

    ``rounds`` scan passes are performed (one per combined schema change
    in the unit); each pass reads every relation of the rewritten
    definition, so a schema change committing concurrently breaks the
    pass and aborts the maintenance — in-exec detection at work.  The
    join runs only in a round whose compensated tables differ, by value,
    from the round before (docs/ALGORITHMS.md §View adaptation).
    """
    query = view.query
    extent: Table | None = None
    joined: dict[str, Table] | None = None
    for _ in range(max(1, rounds)):
        fetched: dict[str, Table] = {}
        for alias in query.aliases:
            ref = query.relation_ref(alias)
            source_query = scan_query(query, alias)
            answer = yield SourceQuery(ref.source, source_query)
            assert isinstance(answer, QueryAnswer)
            leaked = umq.leaked(
                unit, ref.source, ref.relation, answer.answered_at
            )
            fetched[alias] = compensate_answer(
                answer.table, source_query, alias, leaked, log, plans=plans
            )
        if fetched != joined:
            extent = execute(query, fetched, plans)
            joined = fetched
        yield Delay(
            cost.va_base + cost.va_per_tuple * len(extent),
            "va_install",
        )
    assert extent is not None
    return extent
