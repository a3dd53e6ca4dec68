"""The prepared probe sweep against the per-update decomposition.

:func:`~repro.maintenance.decompose.probe_sweep` derives a data
update's decomposition once per view query object and binds only the
join values per update.  The oracle here is the decomposition as it was
rebuilt for every update — ``_reference_probe_query`` and
``_reference_sweep`` are that code, kept verbatim — and the prepared
form must produce the *same queries*: ``==``, same hash, same ``.sql()``
(the snapshot-cache key and the sqlite statement), same shape and
parameters as a query built field by field.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.maintenance.decompose import (
    bfs_alias_order,
    connecting_joins,
    needed_columns,
    probe_query,
    probe_sweep,
    probe_template,
    pushdown_selection,
    scan_query,
    subquery_over,
)
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
#: negation) on a probed relation; a multi-relation residual term
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
)

values = st.frozensets(
    st.one_of(st.integers(0, 6), st.sampled_from(["x", "y"]), st.none()),
    max_size=4,
)


def _view(graph: int, selection: int, projected: int) -> SPJQuery:
    return SPJQuery(
        relations=tuple(
            RelationRef(f"src{index % 2}", alias.lower(), alias)
            for index, alias in enumerate(ALIASES)
        ),
        projection=tuple(attr(alias, "a") for alias in ALIASES)[projected:]
        + (attr("R", "k"),),
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
    assert len(sweep) == len(reference) == len(ALIASES) - 1
    probed = iter(drawn)
    for step, (ref, partial, source_query) in zip(sweep, reference):
        assert step.ref == ref
        assert step.partial == partial
        if partial is None:
            assert_same_query(step.source_query([]), source_query)
        else:
            assert_same_query(step.partial, partial)
            assert_same_query(step.source_query(next(probed)), source_query)


def test_joins_on_one_attribute_probe_it_once_with_the_later_values():
    """T joins both R and S on ``T.k``: one IN-list, the later join's."""
    view = _view(graph=2, selection=0, projected=0)
    (step,) = [s for s in probe_sweep(view, "R") if s.ref.alias == "T"]
    assert len(step.partial.projection) == 2
    first, second = frozenset({1}), frozenset({2})
    assert step.source_query([first, second]).selection == InPredicate(
        attr("T", "k"), second
    )
