"""Combining schema changes preserves semantics (hypothesis).

Section 5's preprocessing must be a pure optimization: applying the
*combined* change list to a source replica must land in exactly the
same catalog state as applying the original sequence.  And the
combination read back from the schema history must be the list the
symbolic loop it replaced emitted, order included
(``tests/combine_oracle.py``), reused names and all.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.maintenance.batch import combine_schema_changes
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.types import AttributeType
from repro.sources.messages import (
    AddAttribute,
    DropAttribute,
    DropRelation,
    RenameAttribute,
    RenameRelation,
)
from repro.sources.source import DataSource
from tests.combine_oracle import combined_by_simulation

BASE = RelationSchema.of(
    "R", [("k", AttributeType.INT), "a", "b", "c"]
)
OTHER = RelationSchema.of("T", [("k", AttributeType.INT), "x"])


@st.composite
def change_sequences(draw, reuse=False):
    """Random applicable sequences of rename/drop/add changes.

    Applicability is tracked by simulating names as we draw, so every
    generated sequence can be committed to a real source.  New names
    are minted (``__n{counter}``); with ``reuse`` a draw may instead
    hand out a name that was dropped or renamed away: a relation renamed
    into one, an attribute added or renamed under one.
    """
    relations = {"R": ["k", "a", "b", "c"], "T": ["k", "x"]}
    #: relation names dropped or renamed away, and per relation the
    #: attribute names it dropped or renamed away
    released: set[str] = set()
    released_attributes: dict[str, set[str]] = {"R": set(), "T": set()}
    sequence = []
    counter = 0

    def fresh(minted: str, free: set[str]) -> str:
        if reuse and free and draw(st.booleans()):
            return draw(st.sampled_from(sorted(free)))
        return minted

    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        if not relations:
            break
        name = draw(st.sampled_from(sorted(relations)))
        attributes = relations[name]
        gone = released_attributes[name]
        kind = draw(
            st.sampled_from(
                ["rename_rel", "rename_attr", "drop_attr", "add_attr",
                 "drop_rel"]
            )
        )
        counter += 1
        if kind == "rename_rel":
            new = fresh(
                f"{name.partition('__')[0]}__n{counter}",
                released - set(relations),
            )
            sequence.append(RenameRelation(name, new))
            relations[new] = relations.pop(name)
            released_attributes[new] = released_attributes.pop(name)
            released.discard(new)
            released.add(name)
        elif kind == "rename_attr":
            old = draw(st.sampled_from(attributes))
            new = fresh(f"{old.partition('__')[0]}__n{counter}", gone)
            sequence.append(RenameAttribute(name, old, new))
            attributes[attributes.index(old)] = new
            gone.discard(new)
            gone.add(old)
        elif kind == "drop_attr" and len(attributes) > 1:
            target = draw(st.sampled_from(attributes))
            sequence.append(DropAttribute(name, target))
            attributes.remove(target)
            gone.add(target)
        elif kind == "add_attr":
            new = fresh(f"extra__n{counter}", gone)
            sequence.append(
                AddAttribute(name, Attribute(new, AttributeType.STRING))
            )
            attributes.append(new)
            gone.discard(new)
        elif kind == "drop_rel" and len(relations) > 1:
            sequence.append(DropRelation(name))
            del relations[name]
            released.add(name)
    return sequence


def fresh_source() -> DataSource:
    source = DataSource("s")
    source.create_relation(BASE, [(1, "p", "q", "r"), (2, "s", "t", "u")])
    source.create_relation(OTHER, [(9, "z")])
    return source


def catalog_state(source: DataSource) -> dict:
    return {
        name: (
            source.catalog.schema(name).attribute_names,
            sorted(source.catalog.table(name).rows()),
        )
        for name in sorted(source.catalog.relation_names)
    }


@given(change_sequences())
@settings(max_examples=80, deadline=None)
def test_combined_equals_sequential(sequence):
    sequential = fresh_source()
    for change in sequence:
        sequential.commit(change)

    combined_source = fresh_source()
    combined = combine_schema_changes(
        [("s", change) for change in sequence]
    )
    for _source, change in combined:
        combined_source.commit(change)

    assert catalog_state(sequential) == catalog_state(combined_source)


@given(change_sequences())
@settings(max_examples=60, deadline=None)
def test_combined_is_no_longer_than_original(sequence):
    combined = combine_schema_changes([("s", c) for c in sequence])
    assert len(combined) <= len(sequence)


@given(
    change_sequences(reuse=True),
    change_sequences(reuse=True),
    st.lists(st.integers(0, 1), max_size=16),
)
@settings(max_examples=200, deadline=None)
def test_history_read_back_equals_the_simulation(first, second, picks):
    """Two sources' sequences interleaved, so first-touch order crosses
    sources too."""
    pending = [("s", change) for change in first], [
        ("t", change) for change in second
    ]
    changes = [pending[pick].pop(0) for pick in picks if pending[pick]]
    changes += pending[0] + pending[1]
    assert combine_schema_changes(changes) == combined_by_simulation(changes)
