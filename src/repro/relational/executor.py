"""The kernel's entry points: :func:`execute` and :class:`BagProbe`.

:func:`execute` evaluates an SPJ query over bound tables under bag
semantics — a row that can be derived in *k* ways appears with
multiplicity *k*, which is what makes incremental maintenance correct
under duplicates (Griffin & Libkin) — through the compiled kernel of
:mod:`repro.relational.plan`.  Both take the world's
:class:`~repro.relational.plan.PlanCache` from their caller, so a world
compiles each plan once and counts its own hits.

The kernel is deliberately independent of *where* tables come from: the
view manager binds some aliases to source query answers and some to
deltas, then evaluates locally.
"""

from __future__ import annotations

from typing import Iterable

from .delta import Delta, Row, validated_bags, with_value_in
from .errors import QueryError
from .plan import CompiledPlan, PlanCache, compile_plan
from .query import SPJQuery
from .schema import RelationSchema
from .table import Table


def _plan(plans: PlanCache | None, shape: SPJQuery, schemas) -> CompiledPlan:
    """From the world's cache ``plans``, or compiled for this call."""
    if plans is None:
        return compile_plan(shape, dict(zip(shape.aliases, schemas)))
    return plans.plan_of(shape, *schemas)


def execute(
    query: SPJQuery, tables: dict[str, Table], plans: PlanCache | None = None
) -> Table:
    """Evaluate ``query`` with each alias bound to a table, compiled
    through the world's plan cache ``plans`` (a one-off passes none)."""
    for alias in query.aliases:
        if alias not in tables:
            raise QueryError(f"alias {alias!r} not bound to a table")
    shape, parameters = query.prepared
    schemas = [tables[alias].schema for alias in shape.aliases]
    return _plan(plans, shape, schemas).execute(tables, parameters)


def signed_parts(
    items: Iterable[tuple[Row, int]],
) -> list[tuple[int, dict[Row, int]]]:
    """The non-empty sign parts of a signed bag, as ``(sign, row ->
    positive count)``: tables hold positive counts only."""
    positive = {row: count for row, count in items if count > 0}
    negative = {row: -count for row, count in items if count < 0}
    return [
        (sign, part)
        for sign, part in ((1, positive), (-1, negative))
        if part
    ]


class BagProbe:
    """``query`` over signed bags of ``schema`` rows bound to ``alias``:
    the kernel entry of compensation and of the cache fold.

    :meth:`keep` reads a bag once, dropping the rows the smallest
    IN-list rejects — over a total compiled plan only; :meth:`parts`
    evaluates what was kept once per sign.  Any other plan (one that may
    raise, or over more than one relation) keeps everything and takes
    the table path of :func:`execute`.  docs/ALGORITHMS.md
    §Compensation, *Read only what the probe admits*, says why this is
    exact.
    """

    __slots__ = (
        "query", "alias", "schema", "plans", "result_schema", "_plan",
        "_parameters", "_probe",
    )

    def __init__(
        self,
        query: SPJQuery,
        alias: str,
        schema: RelationSchema,
        plans: PlanCache | None = None,
    ) -> None:
        self.query, self.alias, self.schema = query, alias, schema
        self.plans = plans
        #: the answer's schema, known up front over a total plan only
        self.result_schema = self._plan = self._probe = None
        if query.aliases == (alias,):
            shape, parameters = query.prepared
            plan = _plan(plans, shape, [schema])
            if plan.total:
                self._plan, self._parameters = plan, parameters
                self.result_schema = plan.result_schema
                self._probe = plan.stages[0].scan.smallest_list(parameters)

    def keep(
        self, items: Iterable[tuple[Row, int]]
    ) -> Iterable[tuple[Row, int]]:
        """The items of a bag an answer row can come from, read once:
        ``items`` itself when nothing can be dropped, else a list."""
        if self._probe is None:
            return items
        _name, position, values = self._probe
        return [item for item in items if item[0][position] in values]

    def admitted(self, deltas: list[Delta]) -> list[Delta]:
        """The deltas of ``deltas`` (of :attr:`schema`) with an item
        :meth:`keep` would keep, in order — ``deltas`` itself when
        nothing can be dropped.  Every delta is validated, admitted or
        not."""
        if self._probe is None:
            validated_bags(deltas)
            return deltas
        _name, position, values = self._probe
        return with_value_in(deltas, position, values)

    def parts(
        self, items: Iterable[tuple[Row, int]]
    ) -> list[tuple[int, Table]]:
        """``(sign, answer)`` for each sign part of kept ``items``; at
        least one, so the caller learns the answer's schema: an empty bag
        answers empty (over a total plan, without a kernel call)."""
        parts = signed_parts(items)
        plan = self._plan
        if plan is None:
            answers = []
            for sign, part in parts or [(1, {})]:
                table = Table.from_counts(self.schema, part)
                answer = execute(self.query, {self.alias: table}, self.plans)
                answers.append((sign, answer))
            return answers
        if not parts:
            return [(1, Table(plan.result_schema))]
        return [
            (sign, plan.execute_rows(part, self._parameters))
            for sign, part in parts
        ]
