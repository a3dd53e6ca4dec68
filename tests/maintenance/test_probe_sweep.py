"""The prepared probe sweep against the per-update decomposition.

:func:`~repro.maintenance.decompose.probe_sweep` derives a data
update's decomposition once per view query object and binds only the
join values per update.  The oracle here is the decomposition as it was
rebuilt for every update — ``_reference_probe_query`` and
``_reference_sweep`` are that code, kept verbatim — and the prepared
form must produce the *same queries*: ``==``, same hash, same ``.sql()``
(the snapshot-cache key and the sqlite statement), same shape and
parameters as a query built field by field.

The running join (``Stage``) is held against the loop it replaced,
``_per_prefix_maintenance``: a partial view query re-run over every
visited prefix to read each probe's IN-lists, then the whole view query
once per sign.  Every probe must be the same query, and the signed view
delta the same bag — and the property must catch three seeded mutations
of the running join.

stdlib ``sqlite3`` is the independent reference: over the same
NULL-bearing draws, the view delta must be the view after the update
minus the view before it, each the bag sqlite answers for ``q.sql()``.
One seeded NULL mutation fails that property on its own: IN-lists read
off only the rows holding no NULL.  NULL join keys kept in a sweep join
cannot show there: every probed relation arrives filtered by IN-lists
that hold no NULL, so no NULL key reaches a join's build side.
"""

from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

import repro.maintenance.decompose as decompose
import repro.maintenance.vm as vm
from repro.maintenance.compensation import compensate_answer
from repro.maintenance.decompose import (
    bfs_alias_order,
    connecting_joins,
    needed_columns,
    probe_query,
    probe_sweep,
    probe_template,
    pushdown_selection,
    scan_query,
)
from repro.relational.delta import Delta
from repro.relational.errors import RelationalError, UnknownAttributeError
from repro.relational.executor import execute, signed_parts
from repro.relational.plan import Stage
from repro.relational.predicate import (
    AttrComparison,
    AttrRef,
    Comparison,
    InPredicate,
    Negation,
    Predicate,
    attr,
    conjunction,
)
from repro.relational.query import JoinCondition, RelationRef, SPJQuery
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.table import Table
from repro.relational.types import AttributeType
from repro.sim.effects import SourceQuery
from repro.sim.engine import QueryAnswer, SimEngine
from repro.sources.messages import DataUpdate, UpdateMessage
from repro.sources.source import DataSource
from repro.views.definition import ViewDefinition
from repro.views.manager import ViewManager, _UMQView
from tests.builders import free_cost_model, subquery_over
from tests.property.test_sqlite_differential import _sqlite

ALIASES = ("R", "S", "T", "U")

#: join graphs over R, S, T, U: a chain, a star, a triangle whose third
#: relation joins *both* others on one attribute, and a chain of three;
#: the last two leave U disconnected (read with a scan)
JOIN_GRAPHS = (
    (("R", "k", "S", "k"), ("S", "j", "T", "j"), ("T", "k", "U", "k")),
    (("R", "k", "S", "k"), ("R", "k", "T", "j"), ("R", "j", "U", "k")),
    (("R", "k", "S", "k"), ("R", "j", "T", "k"), ("S", "j", "T", "k")),
    (("R", "k", "S", "k"), ("S", "k", "T", "k")),
)

#: selections: none; constants; the view's own IN-lists (plain, under a
#: negation) on a probed relation; a multi-relation residual term; two
#: cross-alias terms and one naming an unqualified attribute (``b`` is
#: ``t``'s alone)
SELECTIONS = (
    [],
    [Comparison(attr("S", "a"), ">", 3)],
    [InPredicate(attr("S", "a"), frozenset({1, 2}))],
    [
        Comparison(attr("T", "a"), "<", 9),
        Negation(InPredicate(attr("T", "j"), frozenset({"x"}))),
        InPredicate(attr("R", "a"), frozenset({5})),
    ],
    [AttrComparison(attr("R", "a"), "<=", attr("T", "a"))],
    [
        AttrComparison(attr("S", "a"), "!=", attr("R", "j")),
        AttrComparison(attr("U", "a"), ">=", attr("T", "j")),
        Comparison(AttrRef(None, "b"), "<", 2),
    ],
)

values = st.frozensets(
    st.one_of(st.integers(0, 6), st.sampled_from(["x", "y"]), st.none()),
    max_size=4,
)


def _view(
    graph: int, selection: int, projected: int, self_join: bool = False
) -> SPJQuery:
    """``self_join``: ``S`` is a second occurrence of ``R``'s relation."""
    return SPJQuery(
        relations=tuple(
            RelationRef("src0", "r", alias)
            if self_join and alias == "S"
            else RelationRef(f"src{index % 2}", alias.lower(), alias)
            for index, alias in enumerate(ALIASES)
        ),
        projection=tuple(attr(alias, "a") for alias in ALIASES)[projected:]
        + (attr("R", "k"), attr("T", "b")),
        joins=tuple(
            JoinCondition(attr(left, a), attr(right, b))
            for left, a, right, b in JOIN_GRAPHS[graph]
        ),
        selection=conjunction(SELECTIONS[selection]),
    )


views = st.builds(
    _view,
    st.integers(0, len(JOIN_GRAPHS) - 1),
    st.integers(0, len(SELECTIONS) - 1),
    st.integers(0, 2),
    st.booleans(),
)


def _reference_probe_query(query, alias, probes) -> SPJQuery:
    """``probe_query`` as it was built per update (4ec5f7a)."""
    ref = query.relation_ref(alias)
    predicates: list[Predicate] = [pushdown_selection(query, alias)]
    for attribute, value_set in sorted(probes.items()):
        predicates.append(InPredicate(AttrRef(alias, attribute), value_set))
    return SPJQuery(
        relations=(ref,),
        projection=tuple(
            AttrRef(alias, name) for name in needed_columns(query, alias)
        ),
        joins=(),
        selection=conjunction(predicates),
    )


def _reference_sweep(query, delta_alias, value_sets_for):
    """The loop of ``maintain_data_update`` as it decomposed per update:
    ``[(relation ref, partial | None, source query)]``."""
    steps = []
    visited = {delta_alias}
    for alias in bfs_alias_order(query, delta_alias)[1:]:
        joins = connecting_joins(query, alias, visited)
        if joins:
            target_attrs = tuple(join.other_side(alias) for join in joins)
            partial = subquery_over(query, sorted(visited), target_attrs)
            value_sets = value_sets_for(len(target_attrs))
            probes = {
                join.attr_of(alias).name: value_sets[index]
                for index, join in enumerate(joins)
            }
            source_query = _reference_probe_query(query, alias, probes)
        else:
            partial = None
            source_query = scan_query(query, alias)
        steps.append((query.relation_ref(alias), partial, source_query))
        visited.add(alias)
    return steps


def assert_same_query(prepared: SPJQuery, reference: SPJQuery) -> None:
    assert prepared == reference
    assert hash(prepared) == hash(reference)
    assert prepared.sql() == reference.sql()
    assert repr(prepared) == repr(reference)
    assert prepared.aliases == reference.aliases
    assert prepared.all_attribute_refs() == reference.all_attribute_refs()
    assert prepared.prepared == reference.prepared


@given(
    views,
    st.sampled_from(ALIASES),
    st.lists(values, min_size=2, max_size=2),
)
@settings(max_examples=150, deadline=None)
def test_bound_probes_equal_probes_built_per_update(view, alias, lists):
    for probes in (
        {"k": lists[0]},
        {"j": lists[1], "k": lists[0]},
        {"k": lists[1], "a": lists[0]},
        {},
    ):
        reference = _reference_probe_query(view, alias, probes)
        assert_same_query(probe_query(view, alias, probes), reference)
        attributes = tuple(sorted(probes))
        template = probe_template(view, alias, attributes)
        assert template is probe_template(view, alias, attributes)
        bound = template(tuple(probes[name] for name in attributes))
        assert_same_query(bound, reference)
        # every probe of one template shares one shape object
        assert bound.prepared[0] is template(
            tuple(frozenset() for _ in attributes)
        ).prepared[0]


@given(views, st.sampled_from(ALIASES), st.data())
@settings(max_examples=150, deadline=None)
def test_sweep_equals_the_per_update_decomposition(view, delta_alias, data):
    drawn: list[list[frozenset]] = []

    def value_sets_for(width: int) -> list[frozenset]:
        drawn.append(
            data.draw(st.lists(values, min_size=width, max_size=width))
        )
        return drawn[-1]

    reference = _reference_sweep(view, delta_alias, value_sets_for)
    sweep = probe_sweep(view, delta_alias)
    assert sweep is probe_sweep(view, delta_alias)  # derived once
    assert len(sweep.steps) == len(reference) == len(ALIASES) - 1
    probed = iter(drawn)
    for step, (ref, partial, source_query) in zip(sweep.steps, reference):
        assert step.ref == ref
        # the IN-lists are read off the running join where the partial
        # over the visited prefix projected them
        joins = step.stage.joins
        assert bool(joins) == (partial is not None)
        if partial is None:
            assert_same_query(step.source_query([]), source_query)
        else:
            assert partial.projection == tuple(
                join.other_side(ref.alias) for join in joins
            )
            assert_same_query(step.source_query(next(probed)), source_query)


def test_joins_on_one_attribute_probe_it_once_with_the_later_values():
    """T joins both R and S on ``T.k``: one IN-list, the later join's."""
    view = _view(graph=2, selection=0, projected=0)
    (step,) = [s for s in probe_sweep(view, "R").steps if s.ref.alias == "T"]
    assert len(step.stage.joins) == 2
    first, second = frozenset({1}), frozenset({2})
    assert step.source_query([first, second]).selection == InPredicate(
        attr("T", "k"), second
    )


# --- the running join against the per-prefix loop ----------------------

SCHEMAS = {
    name: RelationSchema(
        name, tuple(Attribute(column, AttributeType.INT) for column in columns)
    )
    for name, columns in (
        ("r", "kja"), ("s", "kja"), ("t", "kjab"), ("u", "kja"),
    )
}

_NO_LEAKS = SimpleNamespace(leaked=lambda *_args: [])


def _distinct_non_null(table: Table) -> list[frozenset]:
    columns: list[set] = [set() for _ in range(table.schema.arity)]
    for row, _count in table.items():
        for values, value in zip(columns, row):
            values.add(value)
    return [frozenset(values - {None}) for values in columns]


def _per_prefix_maintenance(view, unit, umq, log=None):
    """``maintain_data_update`` as it assembled before the running join
    (07bdae6), decomposing with ``_reference_sweep``'s loop: the partial
    view query over the visited prefix, re-run on the absolute delta
    before each probe, then the whole view query once per sign.  IN-lists
    leave NULL out, as every probe now does."""
    message = unit.head_message
    payload = message.payload
    query = view.query
    occurrences = [
        ref
        for ref in query.relations
        if ref.source == message.source and ref.relation == payload.relation
    ]
    if not occurrences or payload.delta.is_empty():
        return None
    occurrence_aliases = [ref.alias for ref in occurrences]
    schema = payload.delta.schema
    total = None
    for k_ref in occurrences:
        delta_alias = k_ref.alias
        bindings = {
            delta_alias: Table.from_counts(
                schema,
                {
                    row: abs(count)
                    for row, count in payload.delta.validated_items()
                },
            )
        }
        visited = {delta_alias}
        for alias in bfs_alias_order(query, delta_alias)[1:]:
            ref = query.relation_ref(alias)
            joins = connecting_joins(query, alias, visited)
            if joins:
                partial = subquery_over(
                    query,
                    sorted(visited),
                    tuple(join.other_side(alias) for join in joins),
                )
                value_sets = _distinct_non_null(execute(partial, bindings))
                source_query = _reference_probe_query(
                    query,
                    alias,
                    {
                        join.attr_of(alias).name: value_sets[index]
                        for index, join in enumerate(joins)
                    },
                )
            else:
                source_query = scan_query(query, alias)
            answer = yield SourceQuery(
                ref.source,
                source_query,
                batchable=bool(joins),
                cacheable=True,
            )
            leaked = umq.leaked(
                unit, ref.source, ref.relation, answer.answered_at
            )
            extra = []
            if alias in occurrence_aliases and occurrence_aliases.index(
                alias
            ) > occurrence_aliases.index(delta_alias):
                extra.append(payload.delta)
            bindings[alias] = compensate_answer(
                answer.table, source_query, alias, leaked, log, extra
            )
            visited.add(alias)
        for sign, part in signed_parts(payload.delta.validated_items()):
            table = Table.from_counts(schema, part)
            result = execute(query, {**bindings, delta_alias: table})
            if total is None:
                total = Delta(result.schema)
            for row, count in result.items():
                total.add(row, sign * count)
    return total


def _answer(query: SPJQuery, tables: dict) -> Table:
    (ref,) = query.relations
    return execute(query, {ref.alias: tables[ref.relation]})


def _outcome(maintain, view, unit, tables, answer=_answer):
    """Drive ``maintain`` with every probe answered from ``tables``:
    ``(probes issued, view delta | None | class of the error raised)``."""
    process = maintain(view, unit, _NO_LEAKS)
    probes = []
    try:
        effect = next(process)
        while True:
            probes.append(effect)
            effect = process.send(
                QueryAnswer(answer(effect.query, tables), 0.0)
            )
    except StopIteration as stop:
        return probes, stop.value
    except RelationalError as exc:
        return probes, type(exc)


def assert_same_outcome(got, expected) -> None:
    (probes, result), (reference_probes, reference) = got, expected
    assert len(probes) == len(reference_probes)
    for probe, reference_probe in zip(probes, reference_probes):
        assert probe == reference_probe
        assert probe.query.sql() == reference_probe.query.sql()
    if isinstance(reference, Delta):
        assert isinstance(result, Delta)
        assert result.schema == reference.schema
    assert result == reference


#: a small domain, so generated rows join; NULL one time in five
cells = st.sampled_from((0, 1, 0, 1, None))


def _rows(schema: RelationSchema, max_size: int = 8):
    return st.lists(
        st.tuples(*[cells] * schema.arity), max_size=max_size
    )


@st.composite
def sweeps(draw):
    """``(view, unit, source tables)``: a signed delta — inserts,
    deletes or both — on one relation of a generated view, the tables
    in their post-update state."""
    view = ViewDefinition("V", draw(views))
    ref = draw(st.sampled_from(view.query.relations))
    schema = SCHEMAS[ref.relation]
    tables = {name: Table(s, draw(_rows(s))) for name, s in SCHEMAS.items()}
    before = tables[ref.relation]
    present = [row for row, _count in before.items()]
    deleted = (
        draw(st.lists(st.sampled_from(present), unique=True, max_size=3))
        if present
        else []
    )
    delta = Delta(schema)
    for row in draw(_rows(schema, max_size=3)):
        delta.add(row, 1)
    for row in deleted:
        delta.add(row, -1)
    assume(not delta.is_empty())
    after = Counter(dict(before.items()))
    after.update(dict(delta.items()))
    tables[ref.relation] = Table.from_counts(schema, +after)
    message = UpdateMessage(
        ref.source, 1, 0.0, DataUpdate(ref.relation, delta)
    )
    return view, SimpleNamespace(head_message=message), tables


def _check(case) -> None:
    assert_same_outcome(
        _outcome(vm.maintain_data_update, *case),
        _outcome(_per_prefix_maintenance, *case),
    )


@given(sweeps())
@settings(max_examples=300, deadline=None)
def test_the_running_join_probes_and_answers_as_the_per_prefix_loop(case):
    _check(case)


def _absolute_counts(monkeypatch):
    begin = Stage.begin
    monkeypatch.setattr(
        Stage,
        "begin",
        lambda self, rows, parameters: begin(
            self, {row: abs(count) for row, count in rows.items()}, parameters
        ),
    )


def _cross_alias_conjuncts_at_the_end(monkeypatch):
    derive = decompose._derive_sweep

    def derived(query, delta_alias):
        sweep = derive(query, delta_alias)
        folds = [sweep.start] + [step.stage for step in sweep.steps]
        every = tuple(term for fold in folds for term in fold.conjuncts)
        folds = [fold._replace(conjuncts=()) for fold in folds]
        folds[-1] = folds[-1]._replace(conjuncts=every)
        return sweep._replace(
            start=folds[0],
            steps=tuple(
                step._replace(stage=fold)
                for step, fold in zip(sweep.steps, folds[1:])
            ),
        )

    monkeypatch.setattr(decompose, "_derive_sweep", derived)


def _no_probe_after_an_empty_stage(monkeypatch):
    emptied: list[bool] = []
    in_lists = Stage.in_lists

    def watched(self, rows, fold):
        if not rows:
            emptied.append(True)
        return in_lists(self, rows, fold)

    monkeypatch.setattr(Stage, "in_lists", watched)
    maintain = vm.maintain_data_update

    def skipping(view, unit, umq, log=None):
        emptied.clear()
        process = maintain(view, unit, umq, log)
        answer = None
        while True:
            try:
                effect = process.send(answer)
            except StopIteration as stop:
                return stop.value
            if emptied:  # answered locally: it matches nothing anyway
                (ref,) = effect.query.relations
                empty = {ref.relation: Table(SCHEMAS[ref.relation])}
                answer = QueryAnswer(_answer(effect.query, empty), 0.0)
            else:
                answer = yield effect

    monkeypatch.setattr(vm, "maintain_data_update", skipping)


@pytest.mark.parametrize(
    "mutation",
    [
        _absolute_counts,
        _cross_alias_conjuncts_at_the_end,
        _no_probe_after_an_empty_stage,
    ],
)
def test_the_property_catches_a_mutated_running_join(mutation, monkeypatch):
    mutation(monkeypatch)
    # generation only: the first counterexample is the verdict
    probe = settings(
        max_examples=300,
        phases=[Phase.generate],
        database=None,
        derandomize=True,
        deadline=None,
    )(given(sweeps())(_check))
    with pytest.raises(AssertionError):
        probe()


# --- error discipline and empty stages ----------------------------------


def _dropping(alias: str, column: str):
    """Answers in which ``alias``'s lacks ``column``: schema drift."""

    def answer(query, tables):
        table = _answer(query, tables)
        if query.relations[0].alias != alias:
            return table
        keep = [
            index
            for index, attribute in enumerate(table.schema)
            if attribute.name != column
        ]
        schema = RelationSchema(
            table.schema.name,
            tuple(table.schema.attributes[index] for index in keep),
        )
        rows: Counter = Counter()
        for row, count in table.items():
            rows[tuple(row[index] for index in keep)] += count
        return Table.from_counts(schema, rows)

    return answer


def _chain_case(selection: int):
    """A one-row insert into ``r`` that joins through ``S`` and ``T``
    (chain ``R - S - T - U``)."""
    view = ViewDefinition(
        "V", _view(graph=0, selection=selection, projected=0)
    )
    tables = {
        "r": Table(SCHEMAS["r"], [(1, 0, 0)]),
        "s": Table(SCHEMAS["s"], [(1, 2, 1)]),
        "t": Table(SCHEMAS["t"], [(2, 2, 1, 0)]),
        "u": Table(SCHEMAS["u"], [(2, 0, 1)]),
    }
    delta = Delta.insertion(SCHEMAS["r"], [(1, 0, 0)])
    message = UpdateMessage("src0", 1, 0.0, DataUpdate("r", delta))
    return view, SimpleNamespace(head_message=message), tables


@pytest.mark.parametrize(
    "selection, alias, column, probes",
    [
        # S's answer lacks S.j, the join value T is probed with
        (0, "S", "j", 1),
        # S's answer lacks S.k, its own join column to R
        (0, "S", "k", 1),
        # T's answer lacks T.a, named by the cross-alias R.a <= T.a
        (4, "T", "a", 2),
    ],
)
def test_schema_drift_raises_where_the_per_prefix_loop_raised(
    selection, alias, column, probes
):
    view, unit, tables = _chain_case(selection)
    drift = _dropping(alias, column)
    got = _outcome(vm.maintain_data_update, view, unit, tables, drift)
    expected = _outcome(_per_prefix_maintenance, view, unit, tables, drift)
    assert got[1] is expected[1] is UnknownAttributeError
    assert len(got[0]) == len(expected[0]) == probes
    assert_same_outcome(got, expected)
    # without the drift the same case maintains
    _probes, delta = _outcome(vm.maintain_data_update, view, unit, tables)
    assert isinstance(delta, Delta)


def _chain_world():
    engine = SimEngine(free_cost_model())
    sources = [engine.add_source(DataSource(f"src{i}")) for i in range(2)]
    for index, name in enumerate("rstu"):
        sources[index % 2].create_relation(
            SCHEMAS[name], [(1, 1, 1, 1)[: SCHEMAS[name].arity]]
        )
    manager = ViewManager(
        engine, ViewDefinition("V", _view(graph=0, selection=0, projected=0))
    )
    return engine, manager


@pytest.mark.parametrize("maintain", ["running", "per_prefix"])
def test_an_emptied_running_join_still_issues_every_probe(maintain):
    engine, manager = _chain_world()
    # R.k = 7 joins no row of S: the running join empties after S
    engine.source("src0").commit(
        DataUpdate.insert(SCHEMAS["r"], [(7, 1, 1)]), at=engine.clock.now
    )
    head = manager.umq.head()
    process = (
        vm.maintain_data_update
        if maintain == "running"
        else _per_prefix_maintenance
    )(manager.view, head, _UMQView(manager, head, []))
    delta = engine.run_process(process)
    assert delta is not None and delta.is_empty()
    # S, T and U each probed once, T and U with empty IN-lists
    assert engine.metrics.source_round_trips == 3


# --- the running join against sqlite -----------------------------------


def _sqlite_view(query: SPJQuery, tables: dict) -> Counter:
    """The bag ``query.sql()`` answers on an untyped sqlite database
    loaded with ``tables``."""
    return _sqlite(
        query,
        {
            table.schema: [
                row for row, count in table.items() for _ in range(count)
            ]
            for table in tables.values()
        },
    )


def _check_against_sqlite(case) -> None:
    """The view delta is the view after the update minus the view
    before it, both evaluated by sqlite."""
    view, unit, tables = case
    payload = unit.head_message.payload
    _probes, delta = _outcome(vm.maintain_data_update, view, unit, tables)
    before = Counter(dict(tables[payload.relation].items()))
    before.subtract(dict(payload.delta.items()))
    expected = _sqlite_view(view.query, tables)
    expected.subtract(
        _sqlite_view(
            view.query,
            {
                **tables,
                payload.relation: Table.from_counts(
                    SCHEMAS[payload.relation], +before
                ),
            },
        )
    )
    assert isinstance(delta, Delta)
    assert {row: count for row, count in delta.items() if count} == {
        row: count for row, count in expected.items() if count
    }, view.query.sql()


def _null_outside_the_keys():
    """A one-row insert into ``r`` whose only NULL, ``R.a``, is in no
    join column: it still probes ``S`` with its key and joins through
    the chain ``R - S - T - U``."""
    view, unit, tables = _chain_case(0)
    row = (1, 0, None)
    delta = Delta.insertion(SCHEMAS["r"], [row])
    message = UpdateMessage("src0", 1, 0.0, DataUpdate("r", delta))
    tables = {**tables, "r": Table(SCHEMAS["r"], [row])}
    return view, SimpleNamespace(head_message=message), tables


@given(sweeps())
@example(_null_outside_the_keys())
@settings(max_examples=200, deadline=None)
def test_the_running_join_answers_what_sqlite_answers(case):
    _check_against_sqlite(case)


def test_sqlite_catches_in_lists_that_drop_null_rows(monkeypatch):
    """Seeded NULL mutation: IN-lists read off only the rows holding no
    NULL, instead of leaving out just the NULL values."""
    in_lists = Stage.in_lists

    def mutated(self, rows, fold):
        kept = {row: count for row, count in rows.items() if None not in row}
        return in_lists(self, kept, fold)

    monkeypatch.setattr(Stage, "in_lists", mutated)
    prop = test_the_running_join_answers_what_sqlite_answers
    monkeypatch.setattr(
        prop,
        "_hypothesis_internal_use_settings",
        settings(
            prop._hypothesis_internal_use_settings, phases=(Phase.explicit,)
        ),
    )
    with pytest.raises(AssertionError):
        prop()

