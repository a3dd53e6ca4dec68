"""Algebraic laws of signed-multiset deltas (hypothesis)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.relational.delta import Delta
from repro.relational.executor import signed_parts
from repro.relational.schema import RelationSchema
from repro.relational.table import Table

SCHEMA = RelationSchema.of("R", ["a", "b"])

rows = st.tuples(
    st.sampled_from(["x", "y", "z", "w"]),
    st.sampled_from(["1", "2", "3"]),
)
entries = st.lists(
    st.tuples(rows, st.integers(min_value=-3, max_value=3)), max_size=12
)


def delta_of(items) -> Delta:
    delta = Delta(SCHEMA)
    for row, count in items:
        delta.add(row, count)
    return delta


@given(entries)
def test_negation_is_inverse(items):
    delta = delta_of(items)
    merged = delta.copy()
    merged.merge(delta.negated())
    assert merged.is_empty()


@given(entries, entries)
def test_merge_commutes(left_items, right_items):
    ab = delta_of(left_items)
    ab.merge(delta_of(right_items))
    ba = delta_of(right_items)
    ba.merge(delta_of(left_items))
    assert ab == ba


@given(entries, entries, entries)
def test_merge_associates(a_items, b_items, c_items):
    left = delta_of(a_items)
    bc = delta_of(b_items)
    bc.merge(delta_of(c_items))
    left.merge(bc)

    right = delta_of(a_items)
    right.merge(delta_of(b_items))
    right.merge(delta_of(c_items))
    assert left == right


def split(delta):
    """``delta``'s sign parts as the kernel reads them
    (:func:`~repro.relational.executor.signed_parts`)."""
    return dict(signed_parts(delta.validated_items()))


@given(entries)
def test_split_recombines(items):
    delta = delta_of(items)
    recombined = Delta(SCHEMA)
    for sign, part in split(delta).items():
        for row, count in part.items():
            assert count > 0
            recombined.add(row, sign * count)
    assert recombined == delta


@given(entries)
def test_net_size_is_sum_of_parts(items):
    delta = delta_of(items)
    parts = split(delta)
    assert delta.net_size() == sum(
        sum(part.values()) for part in parts.values()
    )


@given(entries, st.integers(min_value=-3, max_value=3))
def test_scaling_distributes(items, factor):
    """Merging ``factor`` copies (negated ones when negative) multiplies
    every count by ``factor``."""
    delta = delta_of(items)
    scaled = Delta(SCHEMA)
    for row, count in delta.items():
        scaled.add(row, count * factor)
    merged = Delta(SCHEMA)
    for _ in range(abs(factor)):
        merged.merge(delta if factor > 0 else delta.negated())
    assert merged == scaled


@given(entries)
def test_table_apply_delta_roundtrip(items):
    """Applying delta then its negation restores the table (when legal)."""
    delta = delta_of(items)
    base = Table(SCHEMA)
    # Seed with enough copies that deletions are always legal.
    for row in [("x", "1"), ("y", "2"), ("z", "3"), ("w", "1"),
                ("x", "2"), ("y", "1"), ("z", "2"), ("w", "3"),
                ("x", "3"), ("y", "3"), ("z", "1"), ("w", "2")]:
        base.insert(row, 40)  # enough that any generated delete is legal
    snapshot = base.copy()
    base.apply_delta(delta)
    base.apply_delta(delta.negated())
    assert base == snapshot
