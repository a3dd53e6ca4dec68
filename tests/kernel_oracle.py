"""The relational kernel's displaced implementation, kept as its oracle.

* ``execute_naive`` — the row-at-a-time SPJ evaluator the compiled
  kernel (``repro.relational.plan``) replaced: per-row attribute
  bindings, a hash join over ``Counter`` intermediates, the same greedy
  connected join order and the same stage at which a dangling reference
  raises.  The executor suites hold the kernel equal to it in bag,
  result schema and exception class.
* ``holds`` — the one three-valued evaluation of a predicate over a
  binding, which the naive evaluator filters with.
* ``columnar_join_run`` — ``relational.plan._Join.run`` as it was
  before a build key held by one row kept that ``(row, count)`` pair as
  its own bucket: parallel row / count columns per key.  The join
  suite holds the shipped build equal to it in row order.
* ``naive_kernel()`` — run a block, whole warehouse runs included, with
  ``execute_naive`` in place of the shipped ``execute`` wherever a
  ``repro`` module binds it, and every ``BagProbe`` on its table path.
  ``bindings_of`` finds those bindings; the wall-clock bench
  (``benchmarks/bench_wallclock.py``) runs its naive arm under it.

stdlib ``sqlite3`` is the independent reference beside it
(``tests/property/test_sqlite_differential.py``).
"""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

from repro.relational import executor
from repro.relational.delta import Row
from repro.relational.errors import (
    AmbiguousAttributeError,
    QueryError,
    UnknownAttributeError,
)
from repro.relational.executor import BagProbe
from repro.relational.plan import _single_alias_conjuncts, result_schema
from repro.relational.predicate import (
    TRUE,
    AttrComparison,
    AttrRef,
    Comparison,
    Conjunction,
    InParameter,
    InPredicate,
    Negation,
    Predicate,
    TruePredicate,
    _COMPARATORS,
    conjunction,
)
from repro.relational.query import JoinCondition, SPJQuery
from repro.relational.table import Table

#: the two kernels an equivalence run compares, oracle first
MODES = ("naive", "compiled")


def holds(predicate: Predicate, binding, truth: bool = True) -> bool:
    """Whether ``predicate`` is ``truth`` — TRUE, or with ``truth=False``
    FALSE, never UNKNOWN — under SQL's three-valued logic, ``binding``
    resolving each attribute reference to a value.

    A row passes a selection only where it holds TRUE; NOT holds TRUE
    where its child holds FALSE.  A NULL operand makes a comparison
    UNKNOWN, and ``x IN L`` is UNKNOWN when ``x`` is NULL or misses an
    ``L`` holding NULL.  Conjuncts are read in order and the first that
    decides ends the reading, so a later dangling reference raises only
    when no earlier conjunct decided.
    """
    if isinstance(predicate, TruePredicate):
        return truth
    if isinstance(predicate, Conjunction):
        decided = all if truth else any
        return decided(
            holds(child, binding, truth) for child in predicate.children
        )
    if isinstance(predicate, Negation):
        return holds(predicate.child, binding, not truth)
    if isinstance(predicate, Comparison):
        actual = binding(predicate.attr)
        if actual is None or predicate.value is None:
            return False  # UNKNOWN: a NULL operand (no IS-style equality)
        return _COMPARATORS[predicate.op](actual, predicate.value) == truth
    if isinstance(predicate, AttrComparison):
        left = binding(predicate.left)
        right = binding(predicate.right)
        if left is None or right is None:
            return False
        return _COMPARATORS[predicate.op](left, right) == truth
    if isinstance(predicate, InPredicate):
        value = binding(predicate.attr)
        if value is None:
            return False
        if truth:
            return value in predicate.values
        # a miss of a list holding NULL is UNKNOWN
        return None not in predicate.values and value not in predicate.values
    if isinstance(predicate, InParameter):
        raise QueryError(f"unbound parameter in {predicate.sql()}")
    raise TypeError(f"not a predicate node: {predicate!r}")


@dataclass
class _Intermediate:
    """A partially joined result: column layout plus counted rows."""

    columns: list[AttrRef]
    rows: Counter
    #: lazy memo: attribute name -> every column position carrying it
    _by_name: dict[str, list[int]] | None = None
    #: lazy memo: qualified column -> position
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


def _scan(
    alias: str,
    table: Table,
    predicates: list[Predicate],
) -> _Intermediate:
    """Scan one table, applying pushed-down selection conjuncts; a small
    IN-list is answered through the table's hash index and the other
    conjuncts filter only its candidates."""
    columns = [
        AttrRef(alias, attribute.name) for attribute in table.schema
    ]
    predicate = conjunction(predicates)
    positions = {column: index for index, column in enumerate(columns)}

    probe = _pick_probe(table, alias, predicates)
    items = table.items() if probe is None else table.probe(*probe)
    rows: Counter = Counter()
    for row, count in items:
        if predicate is TRUE or holds(
            predicate, _row_binding(row, positions)
        ):
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
    # Probing only pays when the IN-list is much smaller than the table.
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


def columnar_join_run(join, left_rows: dict, right_rows: dict) -> dict:
    """``join.run(left_rows, right_rows)`` over the columnar build."""
    if join.error is not None:
        raise join.error
    joined: dict = {}
    get = joined.get
    if join.left_key is None:  # bag cartesian product
        for left_row, left_count in left_rows.items():
            for right_row, right_count in right_rows.items():
                row = left_row + right_row
                joined[row] = get(row, 0) + left_count * right_count
        return joined
    index: dict = {}
    for right_row, right_count in right_rows.items():
        key = join.right_key(right_row)
        if key is None or type(key) is tuple and None in key:
            continue
        bucket = index.get(key)
        if bucket is None:
            index[key] = ([right_row], [right_count])
        else:
            bucket[0].append(right_row)
            bucket[1].append(right_count)
    for left_row, left_count in left_rows.items():
        bucket = index.get(join.left_key(left_row))
        if bucket is None:
            continue
        for right_row, right_count in zip(*bucket):
            row = left_row + right_row
            joined[row] = get(row, 0) + left_count * right_count
    return joined


def execute_naive(query: SPJQuery, tables: dict[str, Table]) -> Table:
    """The reference evaluator: straightforward, per-row, uncompiled.

    Raises the schema errors (:class:`UnknownAttributeError` and kin)
    when the bound tables no longer provide what the query asks for —
    the engine-level face of a broken query.
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
        AttrComparison(join.left, "=", join.right) for join in pending_joins
    ]
    predicate = conjunction(filters)
    if predicate is not TRUE:
        kept: Counter = Counter()
        for row, count in intermediate.rows.items():
            binding = _binding(intermediate, row)
            if holds(predicate, binding):
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


def _binding(intermediate: _Intermediate, row: Row):
    def binding(ref: AttrRef):
        return row[intermediate.index_of(ref)]

    return binding


# ----------------------------------------------------------------------
# binding the oracle in place of the shipped kernel
# ----------------------------------------------------------------------


def bindings_of(function) -> list[tuple[object, str]]:
    """``(module, name)`` for every name a loaded ``repro`` module binds
    to ``function``: the names its by-name importers call it through."""
    return [
        (module, name)
        for module_name, module in list(sys.modules.items())
        if module is not None
        and (module_name == "repro" or module_name.startswith("repro."))
        for name, value in list(vars(module).items())
        if value is function
    ]


def _table_path(self, query: SPJQuery, alias: str, schema) -> None:
    """``BagProbe.__init__`` with no plan: every bag goes through
    ``execute``, as it does for a plan that is not total."""
    self.query, self.alias, self.schema = query, alias, schema
    self._plan = self._probe = None


@contextmanager
def naive_kernel():
    """Run the block on the naive evaluator: every ``repro`` binding of
    the shipped ``execute`` is rebound to :func:`execute_naive` and every
    :class:`BagProbe` takes its table path.  A module that binds
    ``execute`` while the block runs is put back too."""
    shipped = executor.execute
    shipped_init = BagProbe.__init__
    for module, name in bindings_of(shipped):
        setattr(module, name, execute_naive)
    BagProbe.__init__ = _table_path
    try:
        yield
    finally:
        BagProbe.__init__ = shipped_init
        for module, name in bindings_of(execute_naive):
            setattr(module, name, shipped)


def kernel(mode: str):
    """The context a ``MODES`` arm runs in."""
    return naive_kernel() if mode == "naive" else nullcontext()
