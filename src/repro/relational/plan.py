"""Compiled query plans and the columnar hash-join kernel.

This is the wall-clock performance layer of the relational engine.  The
naive evaluator (:func:`repro.relational.executor.execute_naive`)
re-derives everything per call and per row: it rebuilds ``positions``
dicts, resolves attribute references through closure-allocating
*bindings*, extracts join keys with per-row generator expressions and
re-validates every projected value on result insertion.  Under bag
semantics all of that is pure interpretation overhead — counted distinct
rows mean one kernel application per *distinct* row, so the work that
remains is exactly the part worth compiling.

A :class:`CompiledPlan` precomputes, once per ``(query shape, schema
epoch)``:

* the greedy connected join order and every intermediate column layout
  (identical to the naive executor's, so results and error behavior
  match bag-for-bag);
* selection/join predicates as *closed-over Python functions* indexing
  rows directly — no per-row ``AttrRef`` dict bindings;
* join/probe key extractors as :func:`operator.itemgetter` (C-speed);
* the projection itemgetter and the result schema.

**Plans are prepared statements.**  A plan is compiled from, and cached
under, the query's *shape* (:attr:`SPJQuery.prepared`): the query with
every ``InPredicate`` value list lifted into a positional parameter.  A
maintenance probe ships the delta's join values as IN-lists, so every
data update asks a query nobody has asked before — of a shape that is as
old as the view definition.  What is a parameter: the value list of each
``InPredicate``, wherever it stands (pushed down, residual, under a
``Negation``).  What is not: ``Comparison`` constants — they belong to
the view definition — and everything structural.  The compiled plan
holds no values; :meth:`CompiledPlan.execute` receives the lists and
binds them then: a filter that tests membership is closed over its list
per execute (:class:`_Late`), and the probe-versus-scan choice of
:meth:`_ScanStage.run` is made per execute too, because it compares the
*bound* list's size with the table's — a plan that froze the choice of
its first binding would scan 2 000 rows for a one-value probe, or probe
a list as long as the table.

Execution then runs a **columnar hash join** over distinct ``(row,
count)`` pairs, multiplying multiplicities in bulk, and materializes
the result through :meth:`Table.from_counts` (rows coming out of
validated tables are not re-validated on the way back in).

**Error parity with the oracle.**  A reference that no longer resolves
(the engine-level face of a broken query) must raise the same exception
class at the same stage as the naive evaluator — scan-predicate errors
per filtered row, join-condition errors at the join step, residual
errors per row, projection errors after filtering.  Compilation
therefore never fails on a dangling reference: it produces a *deferred
raiser* installed at the stage where the naive evaluator would have
raised.  ``tests/property/test_executor_equivalence.py`` proves the
equivalence over random queries × bag tables × deltas × schema changes.

**Plan-cache invalidation rule.**  Schemas are immutable values: every
physical schema change replaces a table's :class:`RelationSchema` with
a new object, so the bound schemas *are* the epoch.  Plans are cached
under ``(shape, bound schemas)``, so a schema change can never serve a
stale plan — the old schema's entry simply ages out of the LRU.
"""

from __future__ import annotations

import operator
from collections import Counter, OrderedDict
from typing import NamedTuple

from .errors import (
    AmbiguousAttributeError,
    QueryError,
    RelationalError,
    UnknownAttributeError,
)
from .executor import _single_alias_conjuncts, result_schema
from .predicate import (
    AttrComparison,
    AttrRef,
    Comparison,
    Conjunction,
    InParameter,
    Negation,
    Predicate,
    TruePredicate,
    _COMPARATORS,
    conjunction,
)
from .query import JoinCondition, SPJQuery
from .schema import RelationSchema
from .table import Table

#: default bound on resident compiled plans (LRU eviction)
DEFAULT_MAX_PLANS = 512


# ----------------------------------------------------------------------
# reference resolution
# ----------------------------------------------------------------------


def _resolver(columns: list[AttrRef]):
    """Position resolver over a column layout.

    Mirrors ``_Intermediate.index_of`` exactly: unqualified names resolve
    through a name→positions map (Unknown on zero, Ambiguous on many),
    qualified references through a column→position map.
    """
    positions = {column: index for index, column in enumerate(columns)}
    by_name: dict[str, list[int]] = {}
    for index, column in enumerate(columns):
        by_name.setdefault(column.name, []).append(index)

    def resolve(ref: AttrRef) -> int:
        if ref.relation is None:
            matches = by_name.get(ref.name, ())
            if not matches:
                raise UnknownAttributeError(ref.name)
            if len(matches) > 1:
                raise AmbiguousAttributeError(
                    f"attribute {ref.name!r} is ambiguous"
                )
            return matches[0]
        position = positions.get(ref)
        if position is None:
            raise UnknownAttributeError(ref.name, ref.relation)
        return position

    return resolve


# ----------------------------------------------------------------------
# predicate compilation
# ----------------------------------------------------------------------


def _raiser(exc: RelationalError):
    """A per-row filter that raises where the naive binding would have."""

    def deferred(row, _exc=exc):
        raise _exc

    return deferred


class _Late:
    """A filter that exists only once the IN-lists are bound.

    ``bind(parameters)`` returns the ``row -> bool`` closed over its
    value lists — built per execute, so the per-row test costs what it
    did when the list was compiled in, and the plan keeps no values.
    """

    __slots__ = ("bind",)

    def __init__(self, bind) -> None:
        self.bind = bind


def _bound(accept, parameters):
    """``accept`` ready to call: a late filter bound to ``parameters``."""
    return accept.bind(parameters) if type(accept) is _Late else accept


def _all_of(filters):
    """AND of compiled filters; ``None`` members accept everything."""
    filters = tuple(accept for accept in filters if accept is not None)
    if not filters:
        return None
    if len(filters) == 1:
        return filters[0]

    def conjunction_filter(row, _filters=filters):
        for accept in _filters:
            if not accept(row):
                return False
        return True

    return conjunction_filter


def _any_of(filters):
    """OR of compiled filters, in order; ``None`` accepts everything."""
    filters = tuple(
        _always if accept is None else accept for accept in filters
    )

    def disjunction_filter(row, _filters=filters):
        for accept in _filters:
            if accept(row):
                return True
        return False

    return disjunction_filter


def _always(row):
    return True


def _never(row):
    return False


def _comparator(op: str, refute: bool):
    """``op`` over two non-NULL values, or its complement to refute."""
    compare = _COMPARATORS[op]
    if refute:
        return lambda left, right, _compare=compare: not _compare(left, right)
    return compare


def _compile_filter(
    predicate: Predicate, resolve, deferred: list, refute: bool = False
):
    """Compile to ``row -> bool`` (``None`` means "accepts everything"),
    or to a :class:`_Late` filter when an IN-list parameter is involved.
    With ``refute``, the filter passes the rows ``predicate`` is FALSE
    on, not merely not TRUE (:meth:`Predicate.refuted`): NOT's child.

    Resolution failures become deferred raisers at the granularity the
    naive evaluator exhibits: per conjunct, so an earlier deciding
    conjunct still short-circuits past a dangling reference.  Each one
    installed is recorded in ``deferred``.
    """
    if isinstance(predicate, Conjunction):
        combine = _any_of if refute else _all_of
        filters = [
            _compile_filter_deferred(child, resolve, deferred, refute)
            for child in predicate.children
        ]
        if any(type(accept) is _Late for accept in filters):
            return _Late(
                lambda parameters: combine(
                    [_bound(accept, parameters) for accept in filters]
                )
            )
        return combine(filters)
    return _compile_filter_deferred(predicate, resolve, deferred, refute)


def _compile_filter_deferred(predicate, resolve, deferred: list, refute):
    try:
        return _compile_leaf(predicate, resolve, deferred, refute)
    except RelationalError as exc:
        deferred.append(exc)
        return _raiser(exc)


def _compile_leaf(predicate: Predicate, resolve, deferred: list, refute):
    if isinstance(predicate, TruePredicate):
        return _never if refute else None
    if isinstance(predicate, Conjunction):
        return _compile_filter(predicate, resolve, deferred, refute)
    if isinstance(predicate, Negation):
        return _compile_filter(
            predicate.child, resolve, deferred, not refute
        )
    if isinstance(predicate, Comparison):
        # Resolve first: the naive binding is invoked before the
        # NULL-operand check, so a dangling reference outranks it.
        position = resolve(predicate.attr)
        if predicate.value is None:
            return _never
        compare = _comparator(predicate.op, refute)

        def comparison(
            row, _position=position, _compare=compare, _value=predicate.value
        ):
            actual = row[_position]
            return actual is not None and _compare(actual, _value)

        return comparison
    if isinstance(predicate, AttrComparison):
        left = resolve(predicate.left)
        right = resolve(predicate.right)
        compare = _comparator(predicate.op, refute)

        def attr_comparison(
            row, _left=left, _right=right, _compare=compare
        ):
            left_value = row[_left]
            if left_value is None:
                return False
            right_value = row[_right]
            return right_value is not None and _compare(
                left_value, right_value
            )

        return attr_comparison
    if isinstance(predicate, InParameter):
        position = resolve(predicate.attr)

        def bind(parameters, _position=position, _index=predicate.index):
            try:
                values = parameters[_index]
            except IndexError:
                raise QueryError(
                    f"unbound parameter in {predicate.sql()}"
                ) from None
            if refute:  # a miss of a list holding NULL is UNKNOWN
                if None in values:
                    return _never
                return lambda row: (
                    (value := row[_position]) is not None
                    and value not in values
                )
            if None in values:  # NULL is in no list
                values = values - {None}
            return lambda row: row[_position] in values

        return _Late(bind)
    # Unknown predicate subclass: fall back to its own evaluate() with a
    # positional binding (slow path, exact semantics).  It resolves per
    # row, so it may raise per row: recorded like a deferred raiser.
    deferred.append(predicate)
    test = predicate.refuted if refute else predicate.evaluate

    def generic(row, _test=test, _resolve=resolve):
        return _test(lambda ref: row[_resolve(ref)])

    return generic


# ----------------------------------------------------------------------
# plan structure
# ----------------------------------------------------------------------


class _ScanStage:
    """One base-table scan: pushed-down filter plus probe candidates."""

    __slots__ = ("alias", "filter", "probes")

    def __init__(self, alias, filter_, probes):
        self.alias = alias
        self.filter = filter_
        #: tuple of (attribute name, column position, parameter index)
        self.probes = probes

    def run(self, table: Table, parameters: tuple) -> dict:
        accept = _bound(self.filter, parameters)
        probe = self._choose_probe(table, parameters)
        if probe is not None:
            attribute_name, _position, values = probe
            rows: dict = {}
            get = rows.get
            for row, count in table.probe(attribute_name, values):
                if accept is None or accept(row):
                    rows[row] = get(row, 0) + count
            return rows
        return _filtered(table._counts, accept)  # package-internal: zero-copy

    def smallest_list(self, parameters: tuple):
        """``(attribute name, position, values)`` of the smallest IN-list
        bound to this execute (the first of equals), or ``None``."""
        best = None
        for attribute_name, position, index in self.probes:
            values = parameters[index]
            if best is None or len(values) < len(best[2]):
                best = (attribute_name, position, values)
        return best

    def _choose_probe(self, table: Table, parameters: tuple):
        """Same selectivity rule as the naive ``_pick_probe``, decided
        from the lists bound to this execute."""
        best = self.smallest_list(parameters)
        if best is None or len(best[2]) * 4 >= max(table.distinct_count(), 1):
            return None
        return best


class _JoinStage:
    """Fold one scanned relation into the accumulated intermediate."""

    __slots__ = ("scan", "left_key", "right_key", "error")

    def __init__(self, scan, left_key, right_key, error):
        self.scan = scan
        self.left_key = left_key
        self.right_key = right_key
        self.error = error

    def run(self, left_rows: dict, right_rows: dict) -> dict:
        if self.error is not None:
            raise self.error
        joined: dict = {}
        get = joined.get
        if self.left_key is None:  # bag cartesian product
            for left_row, left_count in left_rows.items():
                for right_row, right_count in right_rows.items():
                    row = left_row + right_row
                    joined[row] = get(row, 0) + left_count * right_count
            return joined
        # Columnar build: one bucket per distinct key holding parallel
        # row/count columns, multiplied in bulk at probe time.  A key
        # holding NULL is never built, so it matches nothing (SQL ``=``).
        right_key = self.right_key
        index: dict = {}
        for right_row, right_count in right_rows.items():
            key = right_key(right_row)
            if key is None or type(key) is tuple and None in key:
                continue
            bucket = index.get(key)
            if bucket is None:
                index[key] = ([right_row], [right_count])
            else:
                bucket[0].append(right_row)
                bucket[1].append(right_count)
        left_key = self.left_key
        for left_row, left_count in left_rows.items():
            bucket = index.get(left_key(left_row))
            if bucket is None:
                continue
            bucket_rows, bucket_counts = bucket
            if len(bucket_rows) == 1:
                row = left_row + bucket_rows[0]
                joined[row] = get(row, 0) + left_count * bucket_counts[0]
            else:
                for right_row, right_count in zip(
                    bucket_rows, bucket_counts
                ):
                    row = left_row + right_row
                    joined[row] = get(row, 0) + left_count * right_count
        return joined


class CompiledPlan:
    """A fully resolved execution strategy for one (shape, schemas).

    ``total``: the plan can never raise — one relation, no deferred
    raiser, a resolved projection (docs/ALGORITHMS.md §Compensation).
    """

    __slots__ = (
        "shape",
        "first_scan",
        "join_stages",
        "residual",
        "projection_error",
        "project",
        "result_schema",
        "total",
    )

    def __init__(
        self,
        shape,
        first_scan,
        join_stages,
        residual,
        projection_error,
        project,
        result_schema,
        total,
    ):
        self.shape = shape
        self.first_scan = first_scan
        self.join_stages = join_stages
        self.residual = residual
        self.projection_error = projection_error
        self.project = project
        self.result_schema = result_schema
        self.total = total

    def execute(
        self, tables: dict[str, Table], parameters: tuple = ()
    ) -> Table:
        """Evaluate against tables bound to the compiled schemas, with
        the shape's IN-lists bound to ``parameters``.

        The caller (plan cache) guarantees each table's schema equals
        the one the plan was compiled for.
        """
        rows = self.first_scan.run(tables[self.first_scan.alias], parameters)
        for stage in self.join_stages:
            right_rows = stage.scan.run(tables[stage.scan.alias], parameters)
            rows = stage.run(rows, right_rows)
        return self._finish(rows, parameters)

    def execute_rows(self, rows: dict, parameters: tuple) -> Table:
        """Evaluate a total plan over ``rows`` (row -> positive count)
        of its one alias: :meth:`execute`'s scan filter, residual and
        projection, with no table to scan and no index to build."""
        rows = _filtered(rows, _bound(self.first_scan.filter, parameters))
        return self._finish(rows, parameters)

    def _finish(self, rows: dict, parameters: tuple) -> Table:
        rows = _filtered(rows, _bound(self.residual, parameters))
        if self.projection_error is not None:
            raise self.projection_error
        return Table.from_counts(
            self.result_schema, _projected(rows, self.project)
        )


def _filtered(rows: dict, accept) -> dict:
    """The ``rows`` a bound filter accepts (``None``: all of them)."""
    if accept is None:
        return rows
    return {row: count for row, count in rows.items() if accept(row)}


def _projected(rows: dict, project) -> Counter:
    """``rows`` projected, the counts of rows projecting alike summed;
    ``None`` (identity) copies: ``rows`` may be a table's own counts."""
    if project is None:
        return Counter(rows)
    projected: Counter = Counter()
    get = projected.get
    for row, count in rows.items():
        key = project(row)
        projected[key] = get(key, 0) + count
    return projected


# ----------------------------------------------------------------------
# compilation
# ----------------------------------------------------------------------


def _itemgetter(positions: list[int]):
    if len(positions) == 1:
        position = positions[0]
        return lambda row, _position=position: row[_position]
    return operator.itemgetter(*positions)


def _compile_scan(
    alias: str,
    schema: RelationSchema,
    predicates: list[Predicate],
    deferred: list,
) -> tuple[_ScanStage, list[AttrRef]]:
    columns = [AttrRef(alias, attribute.name) for attribute in schema]
    resolve = _resolver(columns)
    accept = _compile_filter(conjunction(predicates), resolve, deferred)
    probes = tuple(
        (
            predicate.attr.name,
            schema.index_of(predicate.attr.name),
            predicate.index,
        )
        for predicate in predicates
        if isinstance(predicate, InParameter)
        and predicate.attr.relation in (None, alias)
        and predicate.attr.name in schema
    )
    return _ScanStage(alias, accept, probes), columns


def _join_stage(scan, conditions, joined_aliases, columns, right_columns):
    """Fold ``scan`` into the intermediate laid out as ``columns`` over
    ``joined_aliases`` on ``conditions`` (none: a product)."""
    if not conditions:
        return _JoinStage(scan, None, None, None)
    resolve_left = _resolver(columns)
    resolve_right = _resolver(right_columns)
    left_positions: list[int] = []
    right_positions: list[int] = []
    try:
        for condition in conditions:
            if condition.left.relation in joined_aliases:
                left_ref, right_ref = condition.left, condition.right
            else:
                left_ref, right_ref = condition.right, condition.left
            left_positions.append(resolve_left(left_ref))
            right_positions.append(resolve_right(right_ref))
    except RelationalError as exc:
        # Raised when the join stage runs — after the right side's
        # scan, exactly like the naive executor.
        return _JoinStage(scan, None, None, exc)
    return _JoinStage(
        scan, _itemgetter(left_positions), _itemgetter(right_positions), None
    )


def _projection(projection, columns, resolve, schemas):
    """``(row -> projected row, result schema, None)``, or ``(None, None,
    error)`` when a reference does not resolve (raised after filtering);
    keeping every column in place is ``None`` (ALGORITHMS.md §Wall-clock)."""
    try:
        positions = [resolve(ref) for ref in projection]
    except RelationalError as exc:
        return None, None, exc
    if positions == list(range(len(columns))):
        project = None
    elif len(positions) == 1:
        # itemgetter with one key returns a scalar; rows are tuples
        position = positions[0]
        project = lambda row, _position=position: (row[_position],)
    else:
        project = operator.itemgetter(*positions)
    projection_columns = [columns[position] for position in positions]
    return project, result_schema(schemas, projection_columns), None


def compile_plan(
    query: SPJQuery, schemas: dict[str, RelationSchema]
) -> CompiledPlan:
    """Compile the shape of ``query`` against per-alias relation schemas.

    Replicates the naive executor's greedy connected join order and
    column layouts exactly; see the module docstring for the deferred
    error discipline.
    """
    query = query.prepared[0]
    pushdown, residual_terms = _single_alias_conjuncts(query.selection)
    # the deferred raisers of the first scan and the residual
    deferred: list = []

    remaining = list(query.aliases)
    first_alias = remaining.pop(0)
    first_scan, columns = _compile_scan(
        first_alias,
        schemas[first_alias],
        pushdown.get(first_alias, []),
        deferred,
    )
    joined_aliases = {first_alias}
    pending_joins = list(query.joins)
    join_stages: list[_JoinStage] = []

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
        scan, right_columns = _compile_scan(
            chosen, schemas[chosen], pushdown.get(chosen, []), []
        )
        join_stages.append(
            _join_stage(
                scan, applicable, joined_aliases, columns, right_columns
            )
        )
        columns = columns + right_columns
        joined_aliases.add(chosen)
        for join in applicable:
            pending_joins.remove(join)

    resolve_final = _resolver(columns)
    residual_filters: list[Predicate] = residual_terms + [
        AttrComparison(join.left, "=", join.right) for join in pending_joins
    ]
    residual = _compile_filter(
        conjunction(residual_filters), resolve_final, deferred
    )

    project, schema, projection_error = _projection(
        query.projection, columns, resolve_final, schemas
    )
    return CompiledPlan(
        query,
        first_scan,
        tuple(join_stages),
        residual,
        projection_error,
        project,
        schema,
        not join_stages and not deferred and projection_error is None,
    )


# ----------------------------------------------------------------------
# the probe sweep's running join
# ----------------------------------------------------------------------


class Fold(NamedTuple):
    """One relation as a probe sweep's running join folds it in, read
    off the view's shape (docs/ALGORITHMS.md §View maintenance)."""

    alias: str
    #: the view's joins to the relations folded before (none: a product)
    joins: tuple[JoinCondition, ...]
    #: the view's conjuncts on ``alias`` alone, applied at its scan
    pushdown: tuple[Predicate, ...]
    #: the view's other conjuncts, applied once this relation is joined
    conjuncts: tuple[Predicate, ...]


class SweepStage:
    """A probe sweep's running join once ``fold`` is folded in, compiled
    for the schemas of the relations folded so far.  Its rows are the
    delta's signed rows, each extended by what it joins.

    The next stage is compiled on first use per answer schema and kept
    here (:meth:`then`): immutable schemas are the epoch, as for
    :class:`PlanCache`.  Errors are deferred as :func:`compile_plan`
    defers them, to the scan row, the join or the read that meets them.
    """

    __slots__ = (
        "columns", "schemas", "parameters", "scan", "join", "accept",
        "_next", "_probe", "_result",
    )

    def __init__(self, previous, fold: Fold, schema, parameters) -> None:
        self.scan, right = _compile_scan(
            fold.alias, schema, list(fold.pushdown), []
        )
        self.columns, self.schemas, self.join = right, {}, None
        if previous is not None:
            self.join = _join_stage(
                self.scan, fold.joins, previous.schemas,
                previous.columns, right,
            )
            self.columns = previous.columns + right
            self.schemas = dict(previous.schemas)
        self.schemas[fold.alias] = schema
        self.parameters = parameters
        self.accept = _bound(
            _compile_filter(
                conjunction(list(fold.conjuncts)), _resolver(self.columns), []
            ),
            parameters,
        )
        self._next: dict = {}
        self._probe = self._result = None

    def then(self, fold: Fold, schema: RelationSchema) -> "SweepStage":
        """The stage folding in ``fold``, its relation answered in
        ``schema`` (a stage has one successor fold)."""
        stage = self._next.get(schema)
        if stage is None:
            stage = SweepStage(self, fold, schema, self.parameters)
            self._next[schema] = stage
        return stage

    def begin(self, items) -> dict:
        """A first stage's rows: the delta's signed ``items`` it admits."""
        accept = _bound(self.scan.filter, self.parameters)
        return _filtered(_filtered(dict(items), accept), self.accept)

    def run(self, rows: dict, table: Table) -> dict:
        """``rows`` of the previous stage joined with ``table``."""
        right = self.scan.run(table, self.parameters)
        return _filtered(self.join.run(rows, right), self.accept)

    def in_lists(self, rows: dict, fold: Fold) -> list[frozenset]:
        """The IN-lists ``fold``'s relation is probed with: the distinct
        values of ``rows`` at the other side of each of its joins, NULL
        left out (an IN-list never matches it)."""
        if self._probe is None:
            resolve = _resolver(self.columns)
            self._probe = [
                resolve(join.other_side(fold.alias)) for join in fold.joins
            ]
        return [
            frozenset({row[position] for row in rows} - {None})
            for position in self._probe
        ]

    def result(self, rows: dict, projection: tuple) -> tuple:
        """The last stage's ``rows`` projected: ``(schema, projected row
        -> signed count)``."""
        if self._result is None:
            resolve = _resolver(self.columns)
            self._result = _projection(
                projection, self.columns, resolve, self.schemas
            )
        project, schema, error = self._result
        if error is not None:
            raise error
        return schema, _projected(rows, project)


# ----------------------------------------------------------------------
# plan cache
# ----------------------------------------------------------------------


class PlanCache:
    """LRU of compiled plans keyed by ``(shape, bound schemas)``.

    The shape (:attr:`SPJQuery.prepared`) carries everything of a query
    but its IN-lists, so the probes of one view version over one updated
    relation share a plan however many deltas go by, and the cache holds
    tens of plans, not one per update.  Shapes and schemas remember their
    hash, and queries bound from one template share the template's shape
    object: a hit is one dict probe that compares by identity.

    Immutable schemas *are* the epoch: any physical schema change swaps
    a table's schema object, so the lookup key changes and the stale
    plan can never be served (it ages out of the LRU).  ``max_plans``
    bounds memory; nothing depends on it for correctness.
    """

    __slots__ = ("max_plans", "_plans", "hits", "misses", "evictions")

    def __init__(self, max_plans: int = DEFAULT_MAX_PLANS) -> None:
        if max_plans < 1:
            raise ValueError(f"max_plans must be at least 1, got {max_plans}")
        self.max_plans = max_plans
        self._plans: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._plans)

    def plan_for(
        self, query: SPJQuery, tables: dict[str, Table]
    ) -> CompiledPlan:
        shape = query.prepared[0]
        return self.plan_of(
            shape, *[tables[alias].schema for alias in shape.aliases]
        )

    def plan_of(
        self, shape: SPJQuery, *schemas: RelationSchema
    ) -> CompiledPlan:
        """The plan of ``shape`` over ``schemas``, one per alias in
        order."""
        key = (shape, *schemas)
        plan = self._plans.get(key)
        if plan is not None:
            self.hits += 1
            self._plans.move_to_end(key)
            return plan
        self.misses += 1
        plan = compile_plan(shape, dict(zip(shape.aliases, schemas)))
        self._plans[key] = plan
        while len(self._plans) > self.max_plans:
            self._plans.popitem(last=False)
            self.evictions += 1
        return plan

    def clear(self) -> None:
        self._plans.clear()

    def stats(self) -> dict[str, int]:
        return {
            "plans": len(self._plans),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


#: the process-wide plan cache used by :func:`execute_compiled`
PLAN_CACHE = PlanCache()


def plan_cache_stats() -> dict[str, int]:
    return PLAN_CACHE.stats()


def execute_compiled(query: SPJQuery, tables: dict[str, Table]) -> Table:
    """Evaluate ``query`` through the compiled/columnar kernel.

    Drop-in replacement for the naive ``execute``: same results (bag
    equality *and* result schema), same exception classes at the same
    stages.
    """
    for alias in query.aliases:
        if alias not in tables:
            raise QueryError(f"alias {alias!r} not bound to a table")
    return PLAN_CACHE.plan_for(query, tables).execute(
        tables, query.prepared[1]
    )
