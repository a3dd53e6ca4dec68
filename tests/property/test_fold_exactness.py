"""The pooled snapshot-cache fold equals the per-delta loop it replaced.

``SnapshotCache._fold`` pools the gap's single-signed deltas into one
positive and one negative bag per schema and evaluates each bag once;
it used to evaluate every gap delta on its own.  That loop lives on
below as the oracle, over the table-based evaluation of
``tests/bag_oracle.py``.  The pooled fold must leave the same
``entry.table`` *and return the same tally* — the gross number of
effect rows, which ``CostModel.cache_serve`` prices on the virtual
clock: an insert the same gap later deletes counts two rows, not none.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache import SnapshotCache, snapshot
from repro.maintenance.compensation import by_schema
from repro.relational.delta import Delta
from repro.relational.errors import ArityError, RelationalError
from repro.relational.executor import BagProbe, execute
from repro.relational.predicate import InPredicate, attr
from repro.relational.query import RelationRef, SPJQuery
from repro.relational.schema import RelationSchema
from repro.relational.table import Table
from repro.relational.types import AttributeType
from repro.sim.metrics import Metrics
from repro.sources.messages import DataUpdate, UpdateMessage
from repro.sources.replica import VersionedEntry
from repro.sources.source import DataSource
from tests.bag_oracle import counted_kernel, table_part_effects

SCHEMA = RelationSchema.of(
    "R", [("k", AttributeType.INT), ("v", AttributeType.STRING)]
)
#: equal to SCHEMA but a distinct object, as a translated delta carries
SCHEMA_TWIN = RelationSchema.of(
    "R", [("k", AttributeType.INT), ("v", AttributeType.STRING)]
)
#: a second schema the probe can be evaluated over: its own bags
WIDE = RelationSchema.of(
    "R",
    [
        ("k", AttributeType.INT),
        ("v", AttributeType.STRING),
        ("w", AttributeType.STRING),
    ],
)
#: schema drift: the probes select on ``k`` and project ``v``
NARROW = RelationSchema.of("R", [("k", AttributeType.INT)])

_SHAPES = {
    id(SCHEMA): lambda k, v: (k, v),
    id(SCHEMA_TWIN): lambda k, v: (k, v),
    id(WIDE): lambda k, v: (k, v, f"w{k}"),
    id(NARROW): lambda k, v: (k,),
}

keys = st.integers(min_value=0, max_value=4)
rows = st.tuples(keys, st.sampled_from(["a", "b", "c"]))


def probe(values, columns=("k", "v")) -> SPJQuery:
    return SPJQuery(
        relations=(RelationRef("s", "R", "R"),),
        projection=tuple(attr("R", column) for column in columns),
        selection=InPredicate(attr("R", "k"), frozenset(values)),
    )


# ----------------------------------------------------------------------
# the oracle: the per-delta fold, verbatim from before the pooling
# ----------------------------------------------------------------------


def oracle_fold(entry: VersionedEntry, query: SPJQuery, deltas) -> int:
    alias = query.relations[0].alias
    corrected = entry.table.as_delta()
    rows = 0
    for delta in deltas:
        parts = table_part_effects(
            query, alias, delta.schema, delta.validated_items()
        )
        effect = Delta(parts[0][1].schema)
        for sign, answer in parts:
            for row, count in answer.items():
                effect.add(row, sign * count)
        rows += sum(abs(count) for _row, count in effect.items())
        corrected.merge(effect)
    entry.table = Table.from_counts(
        entry.table.schema,
        {row: count for row, count in corrected.items() if count > 0},
    )
    return rows


def _folded(fold, answer: Table, query: SPJQuery, deltas):
    """``(table items, tally)`` after ``fold``, or the error it raised
    — with the entry checked untouched."""
    entry = VersionedEntry(0, answer.copy())
    before = entry.table
    try:
        tally = fold(entry, query, [delta.copy() for delta in deltas])
    except RelationalError as exc:
        assert entry.table is before and before == answer
        return type(exc)
    return dict(entry.table.items()), tally


def assert_same_fold(answer: Table, query: SPJQuery, deltas) -> tuple:
    metrics = Metrics()
    pooled = _folded(SnapshotCache(metrics)._fold, answer, query, deltas)
    assert pooled == _folded(oracle_fold, answer, query, deltas)
    # counted once per fold, and only for a fold that went through
    assert metrics.patched_answers == (0 if isinstance(pooled, type) else 1)
    return pooled


# ----------------------------------------------------------------------
# pooled == oracle
# ----------------------------------------------------------------------


@st.composite
def gaps(draw):
    """An answer, a probe and a gap.

    Rows come from a 15-value domain, so a gap routinely inserts a row a
    later delta deletes, repeats a row across deltas and carries counts
    above one; ``undo`` appends a delta's exact negation.  One delta in
    four carries both signs; ``drift`` lets a delta the probe cannot be
    evaluated over into one gap in five — its rows may cancel to an
    empty delta, which still raises.  The answer is unrelated to the
    gap, so the clamp at zero is exercised too.
    """
    columns = draw(st.sampled_from([("k", "v"), ("v",), ("k",), ("v", "k")]))
    query = probe(draw(st.frozensets(keys, min_size=1)), columns)
    pick = {"k": 0, "v": 1}
    answer = Table(
        execute(query, {"R": Table(SCHEMA)}).schema,
        [
            tuple(row[pick[column]] for column in columns)
            for row in draw(st.lists(rows, max_size=8))
        ],
    )
    schemas = [SCHEMA, SCHEMA_TWIN, WIDE]
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        schemas.append(NARROW)
    deltas: list[Delta] = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        schema = draw(st.sampled_from(schemas))
        mixed = draw(st.integers(min_value=0, max_value=3)) == 0
        sign = draw(st.sampled_from([-1, 1]))
        delta = Delta(schema)
        for row in draw(st.lists(rows, min_size=1, max_size=3, unique=True)):
            count = draw(st.integers(min_value=1, max_value=3))
            if mixed:
                sign = -sign
            delta.add(_SHAPES[id(schema)](*row), sign * count)
        deltas.append(delta)
        if draw(st.booleans()):
            undo_at = draw(st.integers(min_value=0, max_value=len(deltas)))
            deltas.insert(undo_at, delta.negated())
    return answer, query, deltas


#: a gap row the probe admits: screened on another column, it is missed
_WRONG_COLUMN_WITNESS = (
    Table(SCHEMA, [(1, "a")]),
    probe({1}),
    [Delta.insertion(SCHEMA, [(1, "new")])],
)
#: a gap row failing its own schema that the probe does not admit: it
#: raises all the same
_UNVALIDATED_MISS_WITNESS = (
    Table(SCHEMA, [(1, "a")]),
    probe({1}),
    [Delta.insertion(SCHEMA, [(1, "new")]), Delta(SCHEMA, {("one", "b"): 1})],
)
#: an empty delta of a drifted schema: it raises all the same
_EMPTY_DRIFT_WITNESS = (
    Table(SCHEMA, [(1, "a")]),
    probe({1}),
    [Delta.insertion(SCHEMA, [(1, "new")]), Delta(NARROW)],
)


@given(gaps())
@example(_WRONG_COLUMN_WITNESS)
@example(_UNVALIDATED_MISS_WITNESS)
@example(_EMPTY_DRIFT_WITNESS)
@settings(max_examples=400, deadline=None)
def test_pooled_fold_equals_per_delta_oracle(data):
    assert_same_fold(*data)


# ----------------------------------------------------------------------
# seeded mutations of the screen
# ----------------------------------------------------------------------


def _screened_on_the_wrong_column(self, deltas):
    """Mutation: the screen reads the column before the probed one."""
    if self._probe is None:
        return deltas
    _name, position, values = self._probe
    return [
        delta
        for delta in deltas
        if any(
            row[position - 1] in values
            for row, _count in delta.validated_items()
        )
    ]


def _validates_only_the_admitted(self, deltas):
    """Mutation: the screen reads raw rows, and only the deltas it
    admits are validated."""
    if self._probe is None:
        return deltas
    _name, position, values = self._probe
    admitted = [
        delta
        for delta in deltas
        if any(row[position] in values for row, _count in delta.items())
    ]
    for delta in admitted:
        delta.validated_items()
    return admitted


def _drops_empty_deltas_first(deltas):
    """Mutation: empty deltas leave the gap before it is grouped, so an
    empty delta's drifted schema is never checked."""
    return by_schema([delta for delta in deltas if not delta.is_empty()])


@pytest.mark.parametrize(
    "owner, name, mutant, witness",
    [
        (BagProbe, "admitted", _screened_on_the_wrong_column,
         _WRONG_COLUMN_WITNESS),
        (BagProbe, "admitted", _validates_only_the_admitted,
         _UNVALIDATED_MISS_WITNESS),
        (snapshot, "by_schema", _drops_empty_deltas_first,
         _EMPTY_DRIFT_WITNESS),
    ],
    ids=["wrong-column", "misses-unvalidated", "empty-deltas-dropped"],
)
def test_seeded_screen_mutations_fail_on_their_pinned_example(
    owner, name, mutant, witness, monkeypatch
):
    monkeypatch.setattr(owner, name, mutant)
    with pytest.raises(AssertionError):
        assert_same_fold(*witness)


# ----------------------------------------------------------------------
# the cases by name
# ----------------------------------------------------------------------


def test_an_insert_the_gap_later_deletes_counts_two_rows_and_leaves_none():
    """The tally is gross: the bags are summed within a sign, never
    cancelled across signs."""
    answer = Table(SCHEMA, [(1, "kept")])
    row = (1, "brief")
    gap = [Delta.insertion(SCHEMA, [row]), Delta.deletion(SCHEMA_TWIN, [row])]
    table, tally = assert_same_fold(answer, probe({1}), gap)
    assert (table, tally) == ({(1, "kept"): 1}, 2)


def test_duplicate_rows_across_deltas_sum_within_their_sign():
    answer = Table(SCHEMA, [(2, "b"), (2, "b"), (2, "b")])
    gap = [
        Delta(SCHEMA, {(1, "a"): 2}),
        Delta(SCHEMA, {(2, "b"): -1}),
        Delta(SCHEMA_TWIN, {(1, "a"): 1, (3, "out"): 1}),
        Delta(SCHEMA, {(2, "b"): -1, (1, "a"): -1}),
    ]
    table, tally = assert_same_fold(answer, probe({1, 2}), gap)
    assert (table, tally) == ({(2, "b"): 1, (1, "a"): 2}, 6)


def test_a_mixed_sign_delta_is_evaluated_alone():
    """Its halves project onto one answer row and cancel *inside* the
    delta — the per-delta tally saw the net, so the pooled one must: it
    may not split the delta across the two bags."""
    update = Delta(SCHEMA, {(1, "old"): -1, (1, "new"): 1})
    query = probe({1}, columns=("k",))
    answer = Table(execute(query, {"R": Table(SCHEMA)}).schema, [(1,)])
    table, tally = assert_same_fold(answer, query, [update])
    assert (table, tally) == ({(1,): 1}, 0)
    # beside single-signed deltas of the same schema
    gap = [Delta.insertion(SCHEMA, [(1, "x")]), update, update.negated()]
    table, tally = assert_same_fold(answer, query, gap)
    assert (table, tally) == ({(1,): 2}, 1)


def test_translated_deltas_pool_with_their_equal_schema():
    gap = [
        Delta.insertion(schema, [(1, f"v{index}")])
        for index, schema in enumerate([SCHEMA, SCHEMA_TWIN] * 3)
    ]
    with counted_kernel() as executes:
        table, tally = _folded(
            SnapshotCache()._fold, Table(SCHEMA), probe({1}), gap
        )
    assert (len(table), tally, len(executes)) == (6, 6, 1)


def test_an_all_filtered_out_gap_costs_no_kernel_execute():
    answer = Table(SCHEMA, [(1, "a")])
    gap = [Delta.insertion(SCHEMA, [(4, "cold")]) for _ in range(3)]
    with counted_kernel() as executes:
        table, tally = _folded(SnapshotCache()._fold, answer, probe({1}), gap)
    assert (table, tally, executes) == ({(1, "a"): 1}, 0, [])
    assert (table, tally) == assert_same_fold(answer, probe({1}), gap)
    # ... yet a drifted schema surfaces though no row would match: its
    # plan may raise, so it takes the table path, empty bag and all
    drifted = [Delta.insertion(NARROW, [(4,)])]
    outcome = assert_same_fold(answer, probe({1}), drifted)
    assert issubclass(outcome, RelationalError)


def test_a_drifted_schema_raises_before_the_entry_changes():
    """Whichever delta drifted, nothing of the gap is applied."""
    answer = Table(SCHEMA, [(1, "a")])
    good = Delta.insertion(SCHEMA, [(1, "new")])
    for gap in (
        [Delta.insertion(NARROW, [(1,)]), good],
        [good, Delta.deletion(NARROW, [(1,)])],
        [good, Delta(NARROW, {(1,): 1, (2,): -1}), good],
        [good, Delta(NARROW)],
    ):
        outcome = assert_same_fold(answer, probe({1}), gap)
        assert isinstance(outcome, type)
        assert issubclass(outcome, RelationalError)


def test_an_answer_of_another_arity_is_refused_untouched():
    """The check ``Delta.merge`` made for the per-delta loop."""
    answer = Table(NARROW, [(1,)])
    gap = [Delta.insertion(SCHEMA, [(1, "new")])]
    assert assert_same_fold(answer, probe({1}), gap) is ArityError


def test_roll_forward_drops_a_drifted_entry_and_counts_a_miss():
    source, metrics = DataSource("s"), Metrics()
    cache = SnapshotCache(metrics)
    source.create_relation(SCHEMA, [(1, "a")])
    query = probe({1})
    cache.store(source, query, execute(query, {"R": source.catalog.table("R")}))
    source.commit(DataUpdate.insert(SCHEMA, [(1, "b")]))
    # a committed delta the probe cannot be evaluated over, with no
    # schema change in the gap to explain it
    drifted = DataUpdate("R", Delta.insertion(NARROW, [(1,)]))
    source.log.append(UpdateMessage("s", 2, 0.0, drifted))
    assert cache.serve(source, query) is None
    assert len(cache) == 0
    assert (metrics.cache_misses, metrics.patched_answers) == (1, 0)
    assert metrics.cache_invalidations_sc == 0


def test_a_200_delta_gap_costs_two_executes_per_schema():
    gap = []
    for index in range(100):
        schema = (SCHEMA, SCHEMA_TWIN, WIDE)[index % 3]
        row = _SHAPES[id(schema)](index % 5, f"v{index}")
        gap.append(Delta.insertion(schema, [row]))
        gap.append(Delta.deletion(schema, [row]))
    answer = Table(SCHEMA, [(1, "a")])
    query = probe({0, 1, 2})
    with counted_kernel() as executes:
        pooled = _folded(SnapshotCache()._fold, answer, query, gap)
    # two schemas by equality (SCHEMA == SCHEMA_TWIN), two signs each
    assert len(executes) == 4
    assert pooled == _folded(oracle_fold, answer, query, gap)
    assert pooled == ({(1, "a"): 1}, 120)


@pytest.mark.parametrize("depth", [1, 20, 200])
def test_store_patch_serve_matches_the_source(depth):
    """End to end through ``serve``: a gap of ``depth`` hot-key inserts
    and deletes is patched to what the source answers now, for the
    price of its gross effect rows."""
    source, cache = DataSource("s"), SnapshotCache()
    source.create_relation(SCHEMA, [(key, "seed") for key in range(5)])
    query = probe({1, 2})
    current = lambda: execute(query, {"R": source.catalog.table("R")})
    cache.store(source, query, current())
    hot = 0
    for index in range(depth):
        # every row is inserted, then deleted by the next commit
        row = (index // 2 % 4, f"v{index // 2}")
        update = DataUpdate.delete if index % 2 else DataUpdate.insert
        source.commit(update(SCHEMA, [row]))
        hot += row[0] in (1, 2)
    hit = cache.serve(source, query)
    assert hit.table == current()
    assert hit.rows == hot
