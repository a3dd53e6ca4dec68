"""Bag-semantics evaluator for SPJ queries.

The executor joins bound tables with hash joins, pushing single-relation
selection conjuncts down to the scans, and produces a counted result: a
row that can be derived in *k* ways appears with multiplicity *k*.
Multiplicities are what make incremental maintenance correct under
duplicates (Griffin & Libkin).

The executor is deliberately independent of *where* tables come from: the
view manager binds some aliases to source query answers and some to
deltas, then evaluates locally.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .delta import Row
from .errors import AmbiguousAttributeError, QueryError, UnknownAttributeError
from .predicate import (
    TRUE,
    AttrRef,
    Conjunction,
    InPredicate,
    Predicate,
    conjunction,
)
from .query import JoinCondition, SPJQuery
from .schema import Attribute, RelationSchema
from .table import Table


@dataclass
class _Intermediate:
    """A partially joined result: column layout plus counted rows."""

    columns: list[AttrRef]
    rows: Counter
    #: lazy memo: attribute name -> every column position carrying it
    #: (unqualified-ref resolution used to re-scan ``columns`` per call)
    _by_name: dict[str, list[int]] | None = None
    #: lazy memo: qualified column -> position (``columns.index`` is an
    #: O(columns) linear scan per reference otherwise)
    _positions: dict[AttrRef, int] | None = None

    def positions_by_name(self) -> dict[str, list[int]]:
        if self._by_name is None:
            by_name: dict[str, list[int]] = {}
            for index, column in enumerate(self.columns):
                by_name.setdefault(column.name, []).append(index)
            self._by_name = by_name
        return self._by_name

    def index_of(self, ref: AttrRef) -> int:
        if ref.relation is None:
            matches = self.positions_by_name().get(ref.name, ())
            if not matches:
                raise UnknownAttributeError(ref.name)
            if len(matches) > 1:
                raise AmbiguousAttributeError(
                    f"attribute {ref.name!r} is ambiguous"
                )
            return matches[0]
        if self._positions is None:
            self._positions = {
                column: index
                for index, column in enumerate(self.columns)
            }
        position = self._positions.get(ref)
        if position is None:
            raise UnknownAttributeError(ref.name, ref.relation)
        return position


def _single_alias_conjuncts(
    selection: Predicate,
) -> tuple[dict[str, list[Predicate]], list[Predicate]]:
    """Split a selection into per-alias pushdown terms and residual terms."""
    conjuncts: list[Predicate]
    if isinstance(selection, Conjunction):
        conjuncts = list(selection.children)
    elif selection is TRUE:
        conjuncts = []
    else:
        conjuncts = [selection]

    pushdown: dict[str, list[Predicate]] = {}
    residual: list[Predicate] = []
    for term in conjuncts:
        aliases = {ref.relation for ref in term.references()}
        if len(aliases) == 1 and None not in aliases:
            pushdown.setdefault(next(iter(aliases)), []).append(term)
        else:
            residual.append(term)
    return pushdown, residual


def _scan(
    alias: str,
    table: Table,
    predicates: list[Predicate],
) -> _Intermediate:
    """Scan one table, applying pushed-down selection conjuncts.

    When one of the conjuncts is a small IN-list on an attribute, the
    table's hash index answers it directly and the remaining conjuncts
    filter only the candidates — the indexed-probe fast path that makes
    maintenance queries cheap on large relations.
    """
    columns = [
        AttrRef(alias, attribute.name) for attribute in table.schema
    ]
    predicate = conjunction(predicates)
    positions = {column: index for index, column in enumerate(columns)}

    probe = _pick_probe(table, alias, predicates)
    if probe is not None:
        attribute_name, values = probe
        rows: Counter = Counter()
        for row, count in table.probe(attribute_name, values):
            if predicate is TRUE or predicate.evaluate(
                _row_binding(row, positions)
            ):
                rows[row] += count
        return _Intermediate(columns, rows)

    def binding_for(row: Row):
        def binding(ref: AttrRef):
            if ref.relation is None:
                candidates = [
                    index
                    for column, index in positions.items()
                    if column.name == ref.name
                ]
                if len(candidates) != 1:
                    raise AmbiguousAttributeError(ref.name)
                return row[candidates[0]]
            index = positions.get(ref)
            if index is None:
                raise UnknownAttributeError(ref.name, ref.relation)
            return row[index]

        return binding

    rows: Counter = Counter()
    for row, count in table.items():
        if predicate is TRUE or predicate.evaluate(binding_for(row)):
            rows[row] += count
    return _Intermediate(columns, rows)


def _pick_probe(
    table: Table,
    alias: str,
    predicates: list[Predicate],
) -> tuple[str, frozenset] | None:
    """Choose the most selective usable IN-list, if probing pays off."""
    best: tuple[str, frozenset] | None = None
    for predicate in predicates:
        if not isinstance(predicate, InPredicate):
            continue
        ref = predicate.attr
        if ref.relation not in (None, alias):
            continue
        if ref.name not in table.schema:
            continue
        if best is None or len(predicate.values) < len(best[1]):
            best = (ref.name, predicate.values)
    if best is None:
        return None
    # Probing only pays when the IN-list is much smaller than the table
    # (index maintenance is charged to mutations either way).
    if len(best[1]) * 4 >= max(table.distinct_count(), 1):
        return None
    return best


def _row_binding(row: Row, positions: dict[AttrRef, int]):
    def binding(ref: AttrRef):
        if ref.relation is None:
            candidates = [
                index
                for column, index in positions.items()
                if column.name == ref.name
            ]
            if len(candidates) != 1:
                raise AmbiguousAttributeError(ref.name)
            return row[candidates[0]]
        index = positions.get(ref)
        if index is None:
            raise UnknownAttributeError(ref.name, ref.relation)
        return row[index]

    return binding


def _hash_join(
    left: _Intermediate,
    right: _Intermediate,
    conditions: list[JoinCondition],
) -> _Intermediate:
    """Equi-join two intermediates on the given conditions.

    With no conditions this degrades to a bag cartesian product.
    """
    left_aliases = {column.relation for column in left.columns}
    left_keys: list[int] = []
    right_keys: list[int] = []
    for condition in conditions:
        if condition.left.relation in left_aliases:
            left_ref, right_ref = condition.left, condition.right
        else:
            left_ref, right_ref = condition.right, condition.left
        left_keys.append(left.index_of(left_ref))
        right_keys.append(right.index_of(right_ref))

    columns = left.columns + right.columns
    joined: Counter = Counter()
    if not conditions:
        for left_row, left_count in left.rows.items():
            for right_row, right_count in right.rows.items():
                joined[left_row + right_row] += left_count * right_count
        return _Intermediate(columns, joined)

    # A key holding NULL matches nothing (SQL ``=``), so it is not built.
    index: dict[tuple, list[tuple[Row, int]]] = {}
    for right_row, right_count in right.rows.items():
        key = tuple(right_row[position] for position in right_keys)
        if None not in key:
            index.setdefault(key, []).append((right_row, right_count))

    for left_row, left_count in left.rows.items():
        key = tuple(left_row[position] for position in left_keys)
        for right_row, right_count in index.get(key, ()):
            joined[left_row + right_row] += left_count * right_count
    return _Intermediate(columns, joined)


def result_schema(
    schemas: dict[str, RelationSchema],
    projection_columns: Sequence[AttrRef],
) -> RelationSchema:
    """Derive the output schema of a projection over ``{alias: schema}``,
    qualifying names only on collision.  ``projection_columns`` must be
    alias-qualified.  The one naming rule of every executor and every
    source backend."""
    names = [column.name for column in projection_columns]
    attributes: list[Attribute] = []
    used: set[str] = set()
    for column in projection_columns:
        schema = schemas[column.relation]  # resolved refs are qualified
        attribute = schema.attribute(column.name)
        if names.count(column.name) > 1:
            attribute = attribute.renamed(f"{column.relation}_{column.name}")
        if attribute.name in used:
            suffix = 2
            while f"{attribute.name}_{suffix}" in used:
                suffix += 1
            attribute = attribute.renamed(f"{attribute.name}_{suffix}")
        used.add(attribute.name)
        attributes.append(attribute)
    return RelationSchema("result", tuple(attributes))


def execute(query: SPJQuery, tables: dict[str, Table]) -> Table:
    """Evaluate ``query`` with each alias bound to a table.

    Dispatches to the active executor: the compiled/columnar kernel
    (:mod:`repro.relational.plan`, the default) or this module's naive
    row-at-a-time evaluator (:func:`execute_naive`, the semantic
    oracle).  Both raise identical schema errors and return identical
    bags — proven by ``tests/property/test_executor_equivalence.py``.
    """
    if _executor_mode == "compiled":
        from .plan import execute_compiled

        return execute_compiled(query, tables)
    return execute_naive(query, tables)


_executor_mode = "compiled"


def set_executor_mode(mode: str) -> None:
    """Select the evaluator behind :func:`execute`.

    ``"compiled"`` (default) uses the plan-compiling columnar kernel;
    ``"naive"`` the original row-at-a-time evaluator.  Virtual-clock
    costs are charged by the simulation layer from the cost model, so
    the mode can never perturb simulated results — only wall time.
    """
    global _executor_mode
    if mode not in ("compiled", "naive"):
        raise ValueError(f"unknown executor mode {mode!r}")
    _executor_mode = mode


def executor_mode() -> str:
    return _executor_mode


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
    evaluates what was kept once per sign.  Any other plan (naive mode,
    one that may raise) keeps everything and takes the table path of
    :func:`execute`.  docs/ALGORITHMS.md §Compensation, *Read only what
    the probe admits*, says why this is exact.
    """

    __slots__ = ("query", "alias", "schema", "_plan", "_parameters", "_probe")

    def __init__(
        self, query: SPJQuery, alias: str, schema: RelationSchema
    ) -> None:
        self.query, self.alias, self.schema = query, alias, schema
        self._plan = self._probe = None
        if _executor_mode == "compiled" and query.aliases == (alias,):
            from .plan import PLAN_CACHE

            shape, parameters = query.prepared
            plan = PLAN_CACHE.plan_of(shape, schema)
            if plan.total:
                self._plan, self._parameters = plan, parameters
                self._probe = plan.first_scan.smallest_list(parameters)

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


def execute_naive(query: SPJQuery, tables: dict[str, Table]) -> Table:
    """The reference evaluator: straightforward, per-row, uncompiled.

    Kept verbatim as the oracle the compiled kernel is proven against.
    Raises :class:`UnknownAttributeError` /
    :class:`~repro.relational.errors.UnknownRelationError`-style schema
    errors when the bound tables no longer provide what the query asks
    for — the engine-level manifestation of a broken query.
    """
    for ref in query.relations:
        if ref.alias not in tables:
            raise QueryError(f"alias {ref.alias!r} not bound to a table")

    pushdown, residual = _single_alias_conjuncts(query.selection)

    # Greedy connected join order: start from the first relation, always
    # fold in a relation reachable via a join condition when one exists.
    remaining = list(query.aliases)
    current_alias = remaining.pop(0)
    intermediate = _scan(
        current_alias,
        tables[current_alias],
        pushdown.get(current_alias, []),
    )
    joined_aliases = {current_alias}
    pending_joins = list(query.joins)

    while remaining:
        applicable: list[JoinCondition] = []
        chosen: str | None = None
        for alias in remaining:
            applicable = [
                join
                for join in pending_joins
                if join.touches(alias)
                and join.other_side(alias).relation in joined_aliases
            ]
            if applicable:
                chosen = alias
                break
        if chosen is None:
            chosen = remaining[0]
            applicable = []
        remaining.remove(chosen)
        right = _scan(chosen, tables[chosen], pushdown.get(chosen, []))
        intermediate = _hash_join(intermediate, right, applicable)
        joined_aliases.add(chosen)
        for join in applicable:
            pending_joins.remove(join)

    # Residual join conditions (e.g. cycles in the join graph) and
    # multi-relation selection terms are applied as filters.
    filters: list[Predicate] = residual + [
        _join_as_predicate(join) for join in pending_joins
    ]
    predicate = conjunction(filters)
    if predicate is not TRUE:
        kept: Counter = Counter()
        for row, count in intermediate.rows.items():
            binding = _binding(intermediate, row)
            if predicate.evaluate(binding):
                kept[row] += count
        intermediate.rows = kept

    # Resolve (possibly unqualified) projection refs to concrete columns.
    projection_columns = [
        intermediate.columns[intermediate.index_of(ref)]
        for ref in query.projection
    ]
    positions = [intermediate.index_of(ref) for ref in query.projection]
    schema = result_schema(
        {alias: table.schema for alias, table in tables.items()},
        projection_columns,
    )
    result = Table(schema)
    for row, count in intermediate.rows.items():
        projected = tuple(row[position] for position in positions)
        result.insert(projected, count)
    return result


def _join_as_predicate(join: JoinCondition) -> Predicate:
    from .predicate import AttrComparison

    return AttrComparison(join.left, "=", join.right)


def _binding(intermediate: _Intermediate, row: Row):
    def binding(ref: AttrRef):
        return row[intermediate.index_of(ref)]

    return binding
