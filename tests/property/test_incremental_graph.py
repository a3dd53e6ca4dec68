"""Incremental detection substrate vs. the from-scratch oracle.

:class:`~repro.core.incremental.IncrementalDependencyGraph` mirrors the
UMQ through its mutation-listener hooks.  Its one correctness contract:
after *any* interleaving of ``receive`` / ``remove_head`` /
``replace_order`` the edge set (and therefore the corrected order) is
bit-identical to a from-scratch
:func:`~repro.core.dependencies.find_dependencies` over the same
messages.  These tests drive random interleavings and check that
contract after every single mutation, plus the footprint-cache epoch
(view-version) invalidation rules.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dependencies import NameResolver, find_dependencies
from repro.core.graph import DependencyGraph
from repro.core.incremental import FootprintCache, IncrementalDependencyGraph
from repro.sources.messages import (
    DataUpdate,
    DropAttribute,
    RenameAttribute,
    RenameRelation,
    UpdateMessage,
)
from repro.views.umq import MaintenanceUnit, UpdateMessageQueue

from tests.conftest import (
    CATALOG_SCHEMA,
    ITEM_SCHEMA,
    STORE_SCHEMA,
    bookinfo_query,
)

QUERY = bookinfo_query()

#: (source, schema, a droppable attribute) for each view relation
RELATIONS = (
    ("retailer", STORE_SCHEMA, "Store"),
    ("retailer", ITEM_SCHEMA, "Price"),
    ("library", CATALOG_SCHEMA, "Review"),
)


class _Stream:
    """Builds messages with monotone per-source sequence numbers and
    tracks the current (possibly renamed) name of each relation."""

    def __init__(self) -> None:
        self._seqno: dict[str, int] = {}
        self._clock = 0.0
        self._names = {
            (source, schema.name): schema.name
            for source, schema, _attr in RELATIONS
        }
        self._attributes = {
            (source, schema.name): attribute
            for source, schema, attribute in RELATIONS
        }
        self._rename_count = 0

    def _message(self, source: str, payload) -> UpdateMessage:
        seqno = self._seqno.get(source, 0) + 1
        self._seqno[source] = seqno
        self._clock += 1.0
        return UpdateMessage(source, seqno, self._clock, payload)

    def data_update(self, relation_index: int) -> UpdateMessage:
        source, schema, _attr = RELATIONS[relation_index]
        return self._message(source, DataUpdate.insert(schema, []))

    def drop_attribute(self, relation_index: int) -> UpdateMessage:
        source, schema, attribute = RELATIONS[relation_index]
        return self._message(source, DropAttribute(schema.name, attribute))

    def rename_relation(self, relation_index: int) -> UpdateMessage:
        source, schema, _attr = RELATIONS[relation_index]
        key = (source, schema.name)
        self._rename_count += 1
        old = self._names[key]
        new = f"{schema.name}__v{self._rename_count}"
        self._names[key] = new
        return self._message(source, RenameRelation(old, new))

    def rename_attribute(self, relation_index: int) -> UpdateMessage:
        """Rename the droppable attribute, addressed through the
        relation's *current* name (both lineages chain)."""
        source, schema, attribute = RELATIONS[relation_index]
        key = (source, schema.name)
        self._rename_count += 1
        old = self._attributes[key]
        new = self._attributes[key] = f"{attribute}__v{self._rename_count}"
        return self._message(
            source, RenameAttribute(self._names[key], old, new)
        )


@st.composite
def op_sequences(draw):
    """A random interleaving of queue mutations.

    Ops are abstract (kind + relation + shuffle seed); the test
    interprets them against a fresh UMQ so hypothesis shrinking stays
    meaningful.
    """
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("du"), st.integers(min_value=0, max_value=2)
                ),
                st.tuples(
                    st.just("drop"), st.integers(min_value=0, max_value=2)
                ),
                st.tuples(
                    st.just("rename"), st.integers(min_value=0, max_value=2)
                ),
                st.tuples(
                    st.just("rename_attribute"),
                    st.integers(min_value=0, max_value=2),
                ),
                st.tuples(st.just("remove_head"), st.just(0)),
                st.tuples(
                    st.just("remove_unit"),
                    st.integers(min_value=0, max_value=2**16),
                ),
                st.tuples(st.just("requeue"), st.just(0)),
                st.tuples(
                    st.just("reorder"),
                    st.integers(min_value=0, max_value=2**16),
                ),
            ),
            min_size=1,
            max_size=24,
        )
    )
    return ops


def _reordered_units(umq: UpdateMessageQueue, seed: int):
    """A shuffled permutation of the queued units, occasionally merging
    the first two (as correction does for cycles)."""
    rng = random.Random(seed)
    units = list(umq.units)
    rng.shuffle(units)
    if len(units) >= 2 and rng.random() < 0.3:
        units = [MaintenanceUnit.merged([units[0], units[1]])] + units[2:]
    return units


def _check_equivalence(
    umq: UpdateMessageQueue, incremental: IncrementalDependencyGraph
) -> None:
    messages = umq.messages()
    expected = {
        (dep.before_index, dep.after_index, dep.kind)
        for dep in find_dependencies(messages, QUERY)
    }
    edges = [
        (dep.before_index, dep.after_index, dep.kind)
        for dep in incremental.dependencies()
    ]
    got = set(edges)
    assert got == expected
    # Edges are expanded on demand and counted arithmetically: the two
    # must agree, and the expansion must not repeat an edge.
    assert len(edges) == len(got) == incremental.edge_count
    assert incremental.node_count == len(messages)
    # The corrected schedule must also match (legal_order is
    # deterministic given the same node/edge sets).
    oracle_graph = DependencyGraph(
        len(messages), find_dependencies(messages, QUERY)
    )
    assert (
        incremental.detection().graph.legal_order()
        == oracle_graph.legal_order()
    )


def _drive(ops, prefill: int) -> None:
    """Interpret ``ops`` against a fresh UMQ holding ``prefill`` DUs,
    checking the oracle contract after every single mutation."""
    umq = UpdateMessageQueue()
    incremental = IncrementalDependencyGraph(umq, lambda: (QUERY,))
    stream = _Stream()
    removed: list[MaintenanceUnit] = []
    for index in range(prefill):
        umq.receive(stream.data_update(index % len(RELATIONS)))
    for kind, argument in ops:
        if kind == "du":
            umq.receive(stream.data_update(argument))
        elif kind == "drop":
            umq.receive(stream.drop_attribute(argument))
        elif kind == "rename":
            umq.receive(stream.rename_relation(argument))
        elif kind == "rename_attribute":
            umq.receive(stream.rename_attribute(argument))
        elif kind == "remove_head":
            if not umq.is_empty():
                removed.append(umq.remove_head())
        elif kind == "remove_unit":
            if not umq.is_empty():
                units = umq.units
                removed.append(
                    umq.remove_unit(units[argument % len(units)])
                )
        elif kind == "requeue":
            if removed:
                umq.requeue_front(removed.pop())
        elif kind == "reorder":
            if not umq.is_empty():
                umq.replace_order(_reordered_units(umq, argument))
        _check_equivalence(umq, incremental)


@given(op_sequences())
@settings(max_examples=60, deadline=None)
def test_incremental_graph_matches_from_scratch_oracle(ops):
    """Every mutation path — including the parallel dispatcher's
    mid-queue ``remove_unit`` and the abort path's ``requeue_front`` —
    must leave the substrate bit-identical to a from-scratch rebuild."""
    _drive(ops, prefill=0)


@given(op_sequences())
@settings(max_examples=40, deadline=None)
def test_deep_classes_match_from_scratch_oracle(ops):
    """The same contract with 30 DUs queued first, so every footprint
    class holds several members while the random tail queues (and
    removes, and reorders) schema changes."""
    _drive(ops, prefill=30)


@given(op_sequences())
@settings(max_examples=40, deadline=None)
def test_unit_removal_with_schema_changes_rebuilds_consistently(ops):
    """remove_head of multi-message (merged) units — the path where an
    SC-bearing unit forces the rebuild fallback."""
    umq = UpdateMessageQueue()
    incremental = IncrementalDependencyGraph(umq, lambda: (QUERY,))
    stream = _Stream()
    for kind, argument in ops:
        if kind in ("du", "drop", "rename", "rename_attribute"):
            maker = {
                "du": stream.data_update,
                "drop": stream.drop_attribute,
                "rename": stream.rename_relation,
                "rename_attribute": stream.rename_attribute,
            }[kind]
            umq.receive(maker(argument))
            continue
        if umq.is_empty():
            continue
        # Merge everything into one unit, then remove it: exercises
        # multi-message head removal (with and without schema changes).
        umq.replace_order([MaintenanceUnit.merged(list(umq.units))])
        _check_equivalence(umq, incremental)
        umq.remove_head()
        _check_equivalence(umq, incremental)
    _check_equivalence(umq, incremental)


class TestFootprintCacheEpoch:
    def test_hit_on_repeat_miss_after_epoch_bump(self):
        epoch = [0]
        cache = FootprintCache(
            lambda: (QUERY,), epoch=lambda: tuple(epoch)
        )
        stream = _Stream()
        message = stream.data_update(0)
        resolver = NameResolver([])

        first = cache.footprint(message, resolver)
        assert (cache.hits, cache.misses) == (0, 1)
        second = cache.footprint(message, resolver)
        assert (cache.hits, cache.misses) == (1, 1)
        assert second == first

        epoch[0] += 1  # a view-version bump
        third = cache.footprint(message, resolver)
        assert (cache.hits, cache.misses) == (1, 2)
        assert cache.invalidations == 1
        assert third == first  # same view query -> same footprint

    def test_substrate_recomputes_footprints_after_version_bump(self):
        epoch = [0]
        umq = UpdateMessageQueue()
        incremental = IncrementalDependencyGraph(
            umq, lambda: (QUERY,), epoch=lambda: tuple(epoch)
        )
        stream = _Stream()
        umq.receive(stream.data_update(0))
        umq.receive(stream.data_update(1))

        incremental.footprint_at(0)
        misses_before = incremental.cache.misses
        incremental.footprint_at(0)
        assert incremental.cache.misses == misses_before  # cached

        epoch[0] += 1
        incremental.footprint_at(0)
        assert incremental.cache.misses == misses_before + 1
        assert incremental.cache.invalidations >= 1

    def test_lineage_arrival_clears_cache_and_stays_correct(self):
        umq = UpdateMessageQueue()
        incremental = IncrementalDependencyGraph(umq, lambda: (QUERY,))
        stream = _Stream()
        umq.receive(stream.data_update(1))
        incremental.footprint_at(0)
        rebuilds_before = incremental.rebuilds
        umq.receive(stream.rename_relation(1))
        assert incremental.rebuilds == rebuilds_before + 1
        _check_equivalence(umq, incremental)
