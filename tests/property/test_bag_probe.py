"""``BagProbe`` equals the table path it replaced, raises included.

A probe evaluated over a signed bag reads the bag once, keeping only the
rows its IN-list admits, and evaluates what it kept once per sign — but
only over a *total* plan, one that cannot raise.  A plan that may raise
(a dangling reference in the pushed-down selection, in the residual or
in the projection; a bag whose schema drifted) takes the table path of
``tests/bag_oracle.py``, so it raises what it always raised.  The
shipped kernel and the naive oracle (``tests/kernel_oracle.py``), the
same answers.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.errors import RelationalError
from repro.relational.executor import BagProbe
from repro.relational.plan import compile_plan
from repro.relational.predicate import (
    Comparison,
    InPredicate,
    attr,
    conjunction,
)
from repro.relational.query import RelationRef, SPJQuery
from repro.relational.schema import RelationSchema
from repro.relational.types import AttributeType
from tests.bag_oracle import counted_kernel, table_part_effects
from tests.kernel_oracle import MODES, kernel

INT, STRING = AttributeType.INT, AttributeType.STRING
FULL = RelationSchema.of("R", [("k", INT), ("n", INT), ("v", STRING)])
#: schema drift: ``n`` is gone
DRIFTED = RelationSchema.of("R", [("k", INT), ("v", STRING)])
#: ``R.gone`` / ``gone`` resolve in no schema
COLUMNS = ("k", "n", "v", "gone")

small = st.integers(min_value=0, max_value=4)
values = {"k": small, "n": small, "v": st.sampled_from(["a", "b", "c"])}


@st.composite
def probes(draw):
    """A one-relation query: IN-lists and comparisons pushed down or, when
    unqualified, left in the residual; any of them, or the projection,
    may name a column no schema has."""
    terms = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        column = draw(st.sampled_from(COLUMNS))
        ref = attr("R", column) if draw(st.booleans()) else attr(column)
        domain = values.get(column, small)
        if draw(st.booleans()):
            terms.append(
                InPredicate(ref, draw(st.frozensets(domain, max_size=3)))
            )
        else:
            terms.append(Comparison(ref, "=", draw(domain)))
    projection = tuple(
        attr("R", column)
        for column in draw(
            st.lists(
                st.sampled_from(COLUMNS), min_size=1, max_size=3, unique=True
            )
        )
    )
    return SPJQuery(
        relations=(RelationRef("s", "R", "R"),),
        projection=projection,
        selection=conjunction(terms),
    )


@st.composite
def bags(draw, schema):
    rows = draw(
        st.lists(
            st.tuples(
                *(values[attribute.name] for attribute in schema.attributes)
            ),
            unique=True,
            max_size=8,
        )
    )
    counts = st.integers(min_value=-3, max_value=3).filter(bool)
    return [(row, draw(counts)) for row in rows]


def _effect(parts):
    """``(result schema, signed effect)`` of ``(sign, answer)`` parts."""
    effect: dict = {}
    for sign, answer in parts:
        for row, count in answer.items():
            effect[row] = effect.get(row, 0) + sign * count
    return parts[0][1].schema, {r: c for r, c in effect.items() if c}


def _outcome(evaluate):
    try:
        return _effect(evaluate())
    except RelationalError as exc:
        return type(exc), str(exc)


@given(
    data=st.data(), query=probes(), schema=st.sampled_from([FULL, DRIFTED])
)
@settings(max_examples=300, deadline=None)
def test_bag_probe_equals_the_table_path(data, query, schema):
    items = data.draw(bags(schema))
    expected = _outcome(
        lambda: table_part_effects(query, "R", schema, items)
    )
    for mode in MODES:
        with kernel(mode):
            probe = BagProbe(query, "R", schema)
            assert _outcome(lambda: probe.parts(probe.keep(items))) == expected


@given(data=st.data(), query=probes())
@settings(max_examples=200, deadline=None)
def test_a_total_plan_reads_only_admitted_rows(data, query):
    """Over a total plan nothing raises, a kept row is one the probed
    IN-list admits, and a bag with none left costs no kernel execute."""
    items = data.draw(bags(FULL))
    plan = compile_plan(query.prepared[0], {"R": FULL})
    if not plan.total:
        return  # the table path: test_bag_probe_equals_the_table_path
    probe = BagProbe(query, "R", FULL)
    kept = probe.keep(items)
    with counted_kernel() as executes:
        parts = probe.parts(kept)
    listed = plan.stages[0].scan.smallest_list(query.prepared[1])
    if listed is not None:
        _name, position, admitted = listed
        assert kept == [
            item for item in items if item[0][position] in admitted
        ]
    signs = {count > 0 for _row, count in kept}
    assert len(executes) == len(signs)
    assert parts[0][1].schema == plan.result_schema


def test_each_dangling_reference_takes_the_table_path():
    in_list = InPredicate(attr("R", "k"), frozenset({1}))
    dangling = {
        "selection": (
            conjunction([in_list, Comparison(attr("R", "gone"), "=", 1)]),
            (attr("R", "k"),),
        ),
        "residual": (
            conjunction([in_list, Comparison(attr("gone"), "=", 1)]),
            (attr("R", "k"),),
        ),
        "projection": (in_list, (attr("R", "gone"),)),
    }
    items = [((1, 1, "a"), 1), ((2, 2, "b"), -1)]
    for where, (selection, projection) in dangling.items():
        query = SPJQuery(
            relations=(RelationRef("s", "R", "R"),),
            projection=projection,
            selection=selection,
        )
        assert not compile_plan(query.prepared[0], {"R": FULL}).total
        probe = BagProbe(query, "R", FULL)
        assert probe.keep(items) is items, where
        expected = _outcome(
            lambda: table_part_effects(query, "R", FULL, items)
        )
        assert isinstance(expected[0], type), where
        assert _outcome(lambda: probe.parts(probe.keep(items))) == expected
