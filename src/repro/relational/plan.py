"""The relational kernel: compiled query plans and the columnar hash join.

:func:`repro.relational.execute` runs every query through here.  A
:class:`CompiledPlan` is compiled once per world (its
:class:`PlanCache`) and ``(query shape, bound schemas)`` — the shape
(:attr:`SPJQuery.prepared`) lifts every IN-list into a parameter bound
per execute, and immutable schemas are the cache's epoch.  A plan is a
chain of stages (:class:`Stage`, the one stage type, which a probe
sweep chains too).  A reference that does not resolve compiles to a
*deferred raiser* at the stage that meets it.  docs/ALGORITHMS.md
§Wall-clock kernel says why each piece is exact; the oracles are
test-side (``tests/kernel_oracle.py``) and stdlib ``sqlite3``
(``tests/property/test_sqlite_differential.py``).
"""

from __future__ import annotations

import operator
from collections import Counter, OrderedDict
from typing import NamedTuple, Sequence

from .errors import (
    AmbiguousAttributeError,
    QueryError,
    RelationalError,
    UnknownAttributeError,
)
from .predicate import (
    TRUE,
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
from .schema import Attribute, RelationSchema
from .table import Table

#: default bound on resident compiled plans (LRU eviction)
DEFAULT_MAX_PLANS = 512


# ----------------------------------------------------------------------
# reference resolution
# ----------------------------------------------------------------------


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


def result_schema(
    schemas: dict[str, RelationSchema],
    projection_columns: Sequence[AttrRef],
) -> RelationSchema:
    """Derive the output schema of a projection over ``{alias: schema}``,
    qualifying names only on collision.  ``projection_columns`` must be
    alias-qualified.  The one naming rule of the kernel and of every
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


def _resolver(columns: list[AttrRef]):
    """Position resolver over a column layout: unqualified names resolve
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
    """A per-row filter that raises where a row meets the reference."""

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
    on, not merely not TRUE under SQL's three-valued logic: NOT's child.

    Resolution failures become deferred raisers per conjunct, so an
    earlier deciding conjunct still short-circuits past a dangling
    reference.  Each one installed is recorded in ``deferred``.
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
        # Resolve first: a dangling reference outranks a NULL operand.
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
    raise TypeError(f"not a predicate node: {predicate!r}")


# ----------------------------------------------------------------------
# plan structure
# ----------------------------------------------------------------------


class _Scan:
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
        """Probe the index only when the smallest list bound to this
        execute is under a quarter of the table's distinct rows."""
        best = self.smallest_list(parameters)
        if best is None or len(best[2]) * 4 >= max(table.distinct_count(), 1):
            return None
        return best


class _Join:
    """Fold one scanned relation into the accumulated intermediate."""

    __slots__ = ("left_key", "right_key", "error")

    def __init__(self, left_key, right_key, error):
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
        # Build: a key held by one distinct row maps to its ``(row,
        # count)`` pair itself, a repeated key to a list of pairs in
        # build order.  A key holding NULL is never built, so it
        # matches nothing (SQL ``=``).
        right_key = self.right_key
        index: dict = {}
        setdefault = index.setdefault
        for pair in right_rows.items():
            key = right_key(pair[0])
            if key is None or type(key) is tuple and None in key:
                continue
            bucket = setdefault(key, pair)
            if bucket is not pair:
                if type(bucket) is list:
                    bucket.append(pair)
                else:
                    index[key] = [bucket, pair]
        left_key = self.left_key
        for left_row, left_count in left_rows.items():
            bucket = index.get(left_key(left_row))
            if bucket is None:
                continue
            if type(bucket) is list:
                for right_row, right_count in bucket:
                    row = left_row + right_row
                    joined[row] = get(row, 0) + left_count * right_count
            else:
                row = left_row + bucket[0]
                joined[row] = get(row, 0) + left_count * bucket[1]
        return joined


class Fold(NamedTuple):
    """One relation as a left-deep join folds it in: a compiled plan's
    folds are derived by :func:`_plan_folds`, a probe sweep's off the
    view's shape (docs/ALGORITHMS.md §Wall-clock kernel)."""

    alias: str
    #: the joins to the relations folded before (none: a product)
    joins: tuple[JoinCondition, ...]
    #: the conjuncts on ``alias`` alone, applied at its scan
    pushdown: tuple[Predicate, ...]
    #: the other conjuncts, applied once this relation is joined
    conjuncts: tuple[Predicate, ...]


class Stage:
    """A left-deep join once ``fold`` is folded in, compiled for the
    schemas of the relations folded so far: the scan of ``fold``'s
    relation, its join to the previous stage's rows (none on a first
    stage) and the conjuncts it completes.  A compiled plan runs a
    chain of stages over base tables; a probe sweep runs one over a
    delta's signed rows, compiling the next stage on first use per
    answer schema and keeping it here (:meth:`then`) — immutable schemas
    are the epoch, as for :class:`PlanCache`.

    A reference that does not resolve becomes a deferred raiser at the
    scan row, the join or the read that meets it; each one installed is
    recorded in ``deferred``.  IN-lists are bound per call.
    """

    __slots__ = (
        "columns", "schemas", "scan", "join", "accept",
        "_next", "_probe", "_result",
    )

    def __init__(
        self, previous, fold: Fold, schema, deferred: list | None = None
    ) -> None:
        deferred = [] if deferred is None else deferred
        self.scan, right = _compile_scan(
            fold.alias, schema, list(fold.pushdown), deferred
        )
        self.columns, self.schemas, self.join = right, {}, None
        if previous is not None:
            self.join = _compile_join(
                fold.joins, previous.schemas, previous.columns, right
            )
            self.columns = previous.columns + right
            self.schemas = dict(previous.schemas)
        self.schemas[fold.alias] = schema
        self.accept = _compile_filter(
            conjunction(list(fold.conjuncts)),
            _resolver(self.columns),
            deferred,
        )
        self._next: dict = {}
        self._probe = self._result = None

    def then(self, fold: Fold, schema: RelationSchema) -> "Stage":
        """The stage folding in ``fold``, its relation answered in
        ``schema`` (a sweep's stage has one successor fold)."""
        stage = self._next.get(schema)
        if stage is None:
            stage = Stage(self, fold, schema)
            self._next[schema] = stage
        return stage

    def begin(self, rows: dict, parameters: tuple) -> dict:
        """A first stage's rows read off ``rows`` (row -> count) instead
        of a scan: the ones its filters admit."""
        rows = _filtered(rows, _bound(self.scan.filter, parameters))
        return _filtered(rows, _bound(self.accept, parameters))

    def run(self, rows, table: Table, parameters: tuple) -> dict:
        """``rows`` of the previous stage joined with ``table`` (a first
        stage: ``table`` scanned)."""
        joined = self.scan.run(table, parameters)
        if self.join is not None:
            joined = self.join.run(rows, joined)
        accept = self.accept
        if accept is None:
            return joined
        if type(accept) is _Late:
            accept = accept.bind(parameters)
        return {row: count for row, count in joined.items() if accept(row)}

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

    def projection(self, projection: tuple) -> tuple:
        """``projection`` over this stage's columns, compiled on first
        use: ``(row -> projected row, result schema, error)``."""
        if self._result is None:
            self._result = _projection(
                projection, self.columns, _resolver(self.columns), self.schemas
            )
        return self._result

    def result(self, rows: dict, projection: tuple) -> tuple:
        """The last stage's ``rows`` projected: ``(schema, projected row
        -> count)``; an unresolved projection raises here, after every
        filter ran."""
        project, schema, error = self._result or self.projection(projection)
        if error is not None:
            raise error
        return schema, _projected(rows, project)


class CompiledPlan:
    """A fully resolved execution strategy for one (shape, schemas): a
    chain of stages (:class:`Stage`).

    ``total``: the plan can never raise — one stage, no deferred
    raiser, a resolved projection (docs/ALGORITHMS.md §Compensation).
    """

    __slots__ = ("shape", "stages", "result_schema", "total")

    def __init__(self, shape, stages, result_schema, total):
        self.shape = shape
        self.stages = stages
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
        rows = None
        for stage in self.stages:
            rows = stage.run(rows, tables[stage.scan.alias], parameters)
        return Table.from_counts(*stage.result(rows, self.shape.projection))

    def execute_rows(self, rows: dict, parameters: tuple) -> Table:
        """Evaluate a total plan over ``rows`` (row -> positive count)
        of its one alias: :meth:`execute` with no table to scan and no
        index to build."""
        stage = self.stages[0]
        rows = stage.begin(rows, parameters)
        return Table.from_counts(*stage.result(rows, self.shape.projection))


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
) -> tuple[_Scan, list[AttrRef]]:
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
    return _Scan(alias, accept, probes), columns


def _compile_join(conditions, joined_aliases, columns, right_columns):
    """The join of rows laid out as ``right_columns`` to the intermediate
    laid out as ``columns`` over ``joined_aliases`` on ``conditions``
    (none: a product)."""
    if not conditions:
        return _Join(None, None, None)
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
        # Raised when the join runs — after the right side's scan.
        return _Join(None, None, exc)
    return _Join(
        _itemgetter(left_positions), _itemgetter(right_positions), None
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


def _plan_folds(query: SPJQuery) -> list[Fold]:
    """A greedy connected join order, folding in first the next relation
    a join condition reaches (a product when none does): single-alias
    conjuncts at each scan, every other conjunct and every join condition
    no fold applied on the last fold, so a dangling reference raises only
    for a row the whole join keeps."""
    pushdown, residual = _single_alias_conjuncts(query.selection)
    remaining = list(query.aliases)
    joined = [remaining.pop(0)]
    pending = list(query.joins)
    folds = [Fold(joined[0], (), tuple(pushdown.get(joined[0], ())), ())]
    while remaining:
        for alias in remaining:
            joins = tuple(
                join
                for join in pending
                if join.touches(alias)
                and join.other_side(alias).relation in joined
            )
            if joins:
                break
        else:
            alias, joins = remaining[0], ()
        remaining.remove(alias)
        joined.append(alias)
        for join in joins:
            pending.remove(join)
        folds.append(Fold(alias, joins, tuple(pushdown.get(alias, ())), ()))
    folds[-1] = folds[-1]._replace(
        conjuncts=tuple(residual)
        + tuple(AttrComparison(join.left, "=", join.right) for join in pending)
    )
    return folds


def compile_plan(
    query: SPJQuery, schemas: dict[str, RelationSchema]
) -> CompiledPlan:
    """Compile the shape of ``query`` against per-alias relation schemas
    into a chain of stages over :func:`_plan_folds`."""
    query = query.prepared[0]
    deferred: list = []
    stage = None
    stages = []
    for fold in _plan_folds(query):
        stage = Stage(stage, fold, schemas[fold.alias], deferred)
        stages.append(stage)
    _project, schema, error = stage.projection(query.projection)
    total = len(stages) == 1 and not deferred and error is None
    return CompiledPlan(query, tuple(stages), schema, total)


# ----------------------------------------------------------------------
# plan cache
# ----------------------------------------------------------------------


class PlanCache:
    """A world's LRU of compiled plans keyed by ``(shape, bound schemas)``.

    The shape (:attr:`SPJQuery.prepared`) carries everything of a query
    but its IN-lists, so the probes of one view version over one updated
    relation share a plan however many deltas go by, and the cache holds
    tens of plans, not one per update.  Shapes and schemas remember their
    hash, and queries bound from one template share the template's shape
    object: a hit is one dict probe that compares by identity.

    Immutable schemas *are* the epoch: any physical schema change swaps
    a table's schema object, so the lookup key changes and the stale
    plan can never be served (it ages out of the LRU).  ``max_plans``
    bounds memory; nothing depends on it for correctness.  Hits,
    compilations and evictions count on ``metrics``, the world's
    :class:`~repro.sim.metrics.Metrics`.
    """

    __slots__ = ("max_plans", "metrics", "_plans")

    def __init__(self, metrics, max_plans: int = DEFAULT_MAX_PLANS) -> None:
        if max_plans < 1:
            raise ValueError(f"max_plans must be at least 1, got {max_plans}")
        self.max_plans = max_plans
        self.metrics = metrics
        self._plans: OrderedDict = OrderedDict()

    def plan_of(
        self, shape: SPJQuery, *schemas: RelationSchema
    ) -> CompiledPlan:
        """The plan of ``shape`` over ``schemas``, one per alias in order."""
        key = (shape, *schemas)
        plan = self._plans.get(key)
        metrics = self.metrics
        if plan is not None:
            metrics.plan_cache_hits += 1
            _PROCESS_COUNTS["hits"] += 1
            self._plans.move_to_end(key)
            return plan
        metrics.plan_cache_recompiles += 1
        _PROCESS_COUNTS["misses"] += 1
        plan = compile_plan(shape, dict(zip(shape.aliases, schemas)))
        self._plans[key] = plan
        while len(self._plans) > self.max_plans:
            self._plans.popitem(last=False)
            metrics.plan_cache_evictions += 1
            _PROCESS_COUNTS["evictions"] += 1
        return plan


#: every plan cache's counts in this process, never a plan: the
#: benchmark spine's child reads their delta over a maintain phase
_PROCESS_COUNTS = {"hits": 0, "misses": 0, "evictions": 0}


def plan_cache_stats() -> dict[str, int]:
    """Every plan cache's hits, misses and evictions so far (monotone)."""
    return dict(_PROCESS_COUNTS)
