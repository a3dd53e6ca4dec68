"""Incremental detection substrate vs. the from-scratch oracle.

:class:`~repro.core.incremental.IncrementalDependencyGraph` mirrors the
UMQ through its mutation-listener hooks.  Its one correctness contract:
after *any* interleaving of ``receive`` / ``remove_head`` /
``replace_order`` the edge set (and therefore the corrected order) is
bit-identical to a from-scratch
:func:`~repro.core.dependencies.find_dependencies` over the same
messages.  These tests drive random interleavings and check that
contract after every single mutation, plus the footprint-cache epoch
(view-version) invalidation rules.  The scheduler's two questions are
answered without that edge set — ``detection()`` orders a class graph,
``ready_units()`` reads chains and classes — so both are checked against
the oracle too: the legal order of the message-level graph, and the
unit fold of its edges (:func:`unit_fold`).

Speculative rewrites are live: the substrate is wired as a scheduler
wires it (a real :class:`~repro.maintenance.vs.ViewSynchronizer` over
the bookstore MKB, its consult counter, the arrival-count epoch), so
every check runs with a warm rewrite memo against an oracle that
synchronizes afresh — including relation-replacement drops, whose
rewrite reads the stand-in's *live* schema, and drops of the stand-in's
attributes, which change it.
"""

from __future__ import annotations

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.dependencies import NameResolver, find_dependencies
from repro.core.graph import DependencyGraph
from repro.core.incremental import FootprintCache, IncrementalDependencyGraph
from repro.maintenance.vs import ViewSynchronizationError, ViewSynchronizer
from repro.sources.messages import (
    DataUpdate,
    DropAttribute,
    DropRelation,
    RenameAttribute,
    RenameRelation,
    UpdateMessage,
)
from repro.views.definition import ViewDefinition
from repro.views.umq import MaintenanceUnit, UpdateMessageQueue

from tests.conftest import (
    CATALOG_SCHEMA,
    ITEM_SCHEMA,
    STORE_SCHEMA,
    STOREITEMS_SCHEMA,
    bookinfo_query,
    bookstore_mkb,
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
    tracks the current (possibly renamed) name of each relation — and,
    as the sources would, the live schema of the MKB's ``StoreItems``
    stand-in, which view synchronization consults."""

    def __init__(self) -> None:
        self.stand_in = STOREITEMS_SCHEMA
        self.synchronizer = ViewSynchronizer(
            bookstore_mkb(), schema_lookup=self._schema_lookup
        )
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

    def _schema_lookup(self, source: str, relation: str):
        if (source, relation) == ("retailer", self.stand_in.name):
            return self.stand_in
        return None

    def rewritten(self, message: UpdateMessage):
        """What ``ViewManager.speculative_queries`` answers, afresh."""
        try:
            result = self.synchronizer.synchronize(
                ViewDefinition("BookInfo", QUERY), message
            )
        except ViewSynchronizationError:
            return (QUERY,)
        return (result.definition.query,)

    def substrate(self, umq: UpdateMessageQueue):
        """The graph under test, wired as ``DynoScheduler`` wires it."""
        return IncrementalDependencyGraph(
            umq,
            lambda: (QUERY,),
            rewritten_query=self.rewritten,
            epoch=lambda: umq.received_schema_changes,
            source_reads=lambda: self.synchronizer.consults,
        )

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

    def drop_relation(self, relation_index: int) -> UpdateMessage:
        """Drop a view relation under its current name: ``Store`` and
        ``Item`` are covered by the MKB's relation replacement (the
        rewrite consults the stand-in's live schema), ``Catalog`` is
        evolved out of the view."""
        source, schema, _attr = RELATIONS[relation_index]
        return self._message(
            source, DropRelation(self._names[source, schema.name])
        )

    def drop_stand_in_attribute(self, pick: int) -> UpdateMessage:
        """Commit a drop of one of the stand-in's remaining attributes:
        the live schema every replacement rewrite validates against
        changes.  (Its last attribute stays; a DU is sent instead.)"""
        names = self.stand_in.attribute_names
        if len(names) == 1:
            return self.data_update(pick)
        attribute = names[pick % len(names)]
        self.stand_in = self.stand_in.drop_attribute(attribute)
        return self._message(
            "retailer", DropAttribute(self.stand_in.name, attribute)
        )

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
                    st.just("drop_relation"),
                    st.integers(min_value=0, max_value=2),
                ),
                st.tuples(
                    st.just("drop_stand_in_attribute"),
                    st.integers(min_value=0, max_value=2),
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


def unit_fold(umq: UpdateMessageQueue, dependencies) -> set[tuple[int, int]]:
    """Inter-unit ``(before_unit, after_unit)`` pairs of message-level
    edges; an edge inside one unit is internal and dropped."""
    unit_of: list[int] = []
    for unit_index, unit in enumerate(umq.units):
        unit_of.extend([unit_index] * len(unit))
    pairs: set[tuple[int, int]] = set()
    for dependency in dependencies:
        before = unit_of[dependency.before_index]
        after = unit_of[dependency.after_index]
        if before != after:
            pairs.add((before, after))
    return pairs


def _check_scheduling(umq, incremental, oracle) -> None:
    """The class-graph order and the class-read ready set equal what the
    message-level ``oracle`` edges give."""
    messages = umq.messages()
    detection = incremental.detection()
    assert detection.groups == (
        DependencyGraph(len(messages), oracle).legal_order()
    )
    assert detection.node_count == len(messages)
    assert detection.edge_count == len(oracle)
    fold = unit_fold(umq, oracle)
    assert incremental.unit_dependencies() == fold
    blocked = {after for _before, after in fold}
    assert incremental.ready_units() == [
        index for index in range(len(umq.units)) if index not in blocked
    ]


def _check_equivalence(
    umq: UpdateMessageQueue,
    incremental: IncrementalDependencyGraph,
    rewritten=None,
) -> None:
    messages = umq.messages()
    oracle = find_dependencies(messages, QUERY, rewritten)
    expected = {
        (dep.before_index, dep.after_index, dep.kind) for dep in oracle
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
    _check_scheduling(umq, incremental, oracle)


#: op kind -> the ``_Stream`` method that makes (and "commits") it
MAKERS = {
    "du": "data_update",
    "drop": "drop_attribute",
    "drop_relation": "drop_relation",
    "drop_stand_in_attribute": "drop_stand_in_attribute",
    "rename": "rename_relation",
    "rename_attribute": "rename_attribute",
}


def _drive(ops, prefill: int) -> None:
    """Interpret ``ops`` against a fresh UMQ holding ``prefill`` DUs,
    checking the oracle contract after every single mutation."""
    umq = UpdateMessageQueue()
    stream = _Stream()
    incremental = stream.substrate(umq)
    removed: list[MaintenanceUnit] = []
    for index in range(prefill):
        umq.receive(stream.data_update(index % len(RELATIONS)))
    for kind, argument in ops:
        if kind in MAKERS:
            umq.receive(getattr(stream, MAKERS[kind])(argument))
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
        _check_equivalence(umq, incremental, stream.rewritten)


@given(op_sequences())
@example([("drop_relation", 1), ("drop_stand_in_attribute", 3)])
@example(
    [
        ("drop_relation", 0),
        ("du", 1),
        ("drop_stand_in_attribute", 0),
        ("reorder", 7),
        ("drop_stand_in_attribute", 1),
    ]
)
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
    stream = _Stream()
    incremental = stream.substrate(umq)
    for kind, argument in ops:
        if kind in MAKERS:
            umq.receive(getattr(stream, MAKERS[kind])(argument))
            continue
        if umq.is_empty():
            continue
        # Merge everything into one unit, then remove it: exercises
        # multi-message head removal (with and without schema changes).
        umq.replace_order([MaintenanceUnit.merged(list(umq.units))])
        _check_equivalence(umq, incremental, stream.rewritten)
        umq.remove_head()
        _check_equivalence(umq, incremental, stream.rewritten)
    _check_equivalence(umq, incremental, stream.rewritten)


class TestClassGraph:
    """The class graph's corner cases, each against the oracle."""

    def _queue(self, *ops):
        umq = UpdateMessageQueue()
        stream = _Stream()
        incremental = stream.substrate(umq)
        for kind, argument in ops:
            umq.receive(getattr(stream, MAKERS[kind])(argument))
        return umq, incremental, stream

    @staticmethod
    def _in_own_conflicting_class(incremental, position: int) -> bool:
        absolute = incremental._order[position]
        return incremental._conflicts(absolute, incremental._filed[absolute])

    def test_a_change_in_its_own_conflicting_class_merges_nothing(self):
        """``s -> C -> s`` is a cycle holding one real node."""
        umq, incremental, stream = self._queue(("du", 2), ("drop", 0))
        assert self._in_own_conflicting_class(incremental, 1)
        _check_equivalence(umq, incremental, stream.rewritten)
        assert incremental.detection().groups == [[1], [0]]

    def test_a_cycle_through_one_class_node_merges_its_changes(self):
        """Two drops pruned out of the view share the view's footprint
        and each conflicts with it: their only cycle runs through the
        one class node, and it merges them."""
        umq, incremental, stream = self._queue(
            ("drop", 0), ("du", 0), ("drop", 1)
        )
        assert incremental._filed[0] is incremental._filed[2]
        assert self._in_own_conflicting_class(incremental, 0)
        assert self._in_own_conflicting_class(incremental, 2)
        _check_equivalence(umq, incremental, stream.rewritten)
        assert [0, 2] in incremental.detection().groups

    def test_du_only_batch_units(self):
        """Voluntary DU batches: a chain pair inside a batch is internal,
        one across batches blocks the later batch."""
        umq, incremental, stream = self._queue(
            *[("du", relation) for relation in (0, 1, 0, 1, 2, 0)]
        )
        units = umq.units
        umq.replace_order(
            [
                MaintenanceUnit.merged(units[0:3]),
                MaintenanceUnit.merged(units[3:5]),
                units[5],
            ]
        )
        _check_equivalence(umq, incremental, stream.rewritten)
        assert incremental.unit_dependencies() == {(0, 1), (0, 2)}
        assert incremental.ready_units() == [0]


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
