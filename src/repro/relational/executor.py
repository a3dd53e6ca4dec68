"""The kernel's entry points: :func:`execute` and :class:`BagProbe`.

:func:`execute` evaluates an SPJ query over bound tables under bag
semantics — a row that can be derived in *k* ways appears with
multiplicity *k*, which is what makes incremental maintenance correct
under duplicates (Griffin & Libkin) — through the compiled kernel of
:mod:`repro.relational.plan`.

The kernel is deliberately independent of *where* tables come from: the
view manager binds some aliases to source query answers and some to
deltas, then evaluates locally.
"""

from __future__ import annotations

from typing import Iterable

from .delta import Row
from .plan import PLAN_CACHE, execute_compiled
from .query import SPJQuery
from .schema import RelationSchema
from .table import Table


def execute(query: SPJQuery, tables: dict[str, Table]) -> Table:
    """Evaluate ``query`` with each alias bound to a table."""
    return execute_compiled(query, tables)


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

    __slots__ = ("query", "alias", "schema", "_plan", "_parameters", "_probe")

    def __init__(
        self, query: SPJQuery, alias: str, schema: RelationSchema
    ) -> None:
        self.query, self.alias, self.schema = query, alias, schema
        self._plan = self._probe = None
        if query.aliases == (alias,):
            shape, parameters = query.prepared
            plan = PLAN_CACHE.plan_of(shape, schema)
            if plan.total:
                self._plan, self._parameters = plan, parameters
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
                answers.append((sign, execute(self.query, {self.alias: table})))
            return answers
        if not parts:
            return [(1, Table(plan.result_schema))]
        return [
            (sign, plan.execute_rows(part, self._parameters))
            for sign, part in parts
        ]
