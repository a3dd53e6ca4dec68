"""Incremental detection substrate: a footprint cache and a live graph
kept beside the UMQ, so a mutation pays for what it changed.

Every memo here is invalidated by what it read, per key: see
docs/ALGORITHMS.md §Incremental detection substrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..sim.metrics import Metrics
from ..sources.messages import (
    RenameAttribute,
    RenameRelation,
    RestructureRelations,
    UpdateMessage,
)
from ..views.umq import MaintenanceUnit, UpdateMessageQueue
from .dependencies import (
    Dependency,
    DependencyKind,
    Footprint,
    NameResolver,
    footprint_of_query,
    footprint_of_update,
    names_read_by_change,
    names_read_by_update,
)
from .graph import legal_order

#: edge kinds of the expanded ``Dependency`` tuples
_CD = DependencyKind.CONCURRENT
_SD = DependencyKind.SEMANTIC


@dataclass
class DetectionResult:
    """What correction reads of a detection round: the graph's size
    (the cost model charges it) and its legal order."""

    node_count: int
    edge_count: int
    groups: list[list[int]]


def _resolver_of(messages) -> NameResolver:
    """A resolver that has folded in ``messages``, in order."""
    resolver = NameResolver()
    for message in messages:
        resolver.extend(message)
    return resolver


def _footprint_once(query, exclude_aliases=frozenset()) -> Footprint:
    """:func:`footprint_of_query`, once per (immutable) query object."""
    return query.derived(footprint_of_query, exclude_aliases)


def lineage_affecting(message: UpdateMessage) -> bool:
    """Does this message extend a rename lineage (resolver input)?"""
    return isinstance(
        message.payload,
        (RenameRelation, RenameAttribute, RestructureRelations),
    )


def _index(readers: dict, names, reader) -> None:
    """File ``reader`` under each of ``names``."""
    for name in names:
        readers.setdefault(name, set()).add(reader)


def _unindex(readers: dict, names, reader) -> None:
    """Undo :func:`_index`, dropping an emptied group (a name already
    popped is skipped)."""
    for name in names:
        group = readers.get(name)
        if group is not None:
            group.discard(reader)
            if not group:
                del readers[name]


class _Class(set):
    """The queued nodes filed under one footprint value, and how many
    queued schema changes conflict with it."""

    __slots__ = ("conflicting",)

    def __init__(self) -> None:
        super().__init__()
        self.conflicting = 0


class FootprintCache:
    """Normalized maintenance footprints, one entry per :meth:`key`,
    each kept until something it read changes.

    What an entry reads and what drops it: docs/ALGORITHMS.md
    §Incremental detection substrate, *Footprint cache*.
    """

    def __init__(
        self,
        view_queries: Callable[[], object],
        rewritten_query: Callable[[UpdateMessage], object] | None = None,
        epoch: Callable[[], object] | None = None,
        metrics=None,
        source_reads: Callable[[], int] = lambda: 0,
    ) -> None:
        self._view_queries = view_queries
        self._rewritten = rewritten_query
        self._source_reads = source_reads
        self._epoch_fn = epoch
        self._epoch = epoch() if epoch is not None else None
        self.generation = 0
        #: key -> (message, footprint, resolver names read); holding the
        #: message pins the ``id`` a schema change is keyed by
        self._entries: dict[object, tuple] = {}
        #: id(schema change) -> (message, view queries read, rewrite);
        #: pins the message: a leaked entry is memory, not a reused id
        self._rewrites: dict[int, tuple[UpdateMessage, object, object]] = {}
        #: raw footprint -> (normalized, resolver names read); kept after
        #: its keys leave, so indexed like the entries
        self._normalized: dict[Footprint, tuple[Footprint, set]] = {}
        #: resolver name -> the keys / raw footprints that read it
        self._key_readers: dict[tuple, set] = {}
        self._raw_readers: dict[tuple, set[Footprint]] = {}
        #: schema-change keys whose rewrite read live source schemas
        self._volatile: set[int] = set()
        self.metrics = metrics if metrics is not None else Metrics()

    def __len__(self) -> int:
        return len(self._entries)

    def validate(self) -> None:
        """Clear the cache if the epoch moved since the last check."""
        if self._epoch_fn is None:
            return
        current = self._epoch_fn()
        if current != self._epoch:
            self.clear()
            self._epoch = current

    def clear(self) -> None:
        self._entries.clear()
        self._normalized.clear()
        self._key_readers.clear()
        self._raw_readers.clear()
        self._volatile.clear()
        self.generation += 1

    def _drop(self, key) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            _unindex(self._key_readers, entry[2], key)
        self._volatile.discard(key)

    def discard(self, message: UpdateMessage) -> None:
        """Forget a departing schema change (DU entries are shared by
        the relation's other updates and stay)."""
        if message.is_schema_change:
            self._drop(id(message))
            self._rewrites.pop(id(message), None)

    def invalidate(self, name: tuple) -> set:
        """``name`` was re-rooted: drop what read it; the dropped keys."""
        for raw in self._raw_readers.pop(name, ()):
            _unindex(self._raw_readers, self._normalized.pop(raw)[1], raw)
        keys = self._key_readers.pop(name, set())
        for key in keys:
            self._drop(key)
        return keys

    def drop_volatile(self) -> set:
        """A schema change arrived (source schemas may have drifted):
        drop the entries that read them; the dropped keys."""
        keys, self._volatile = self._volatile, set()
        for key in keys:
            self._drop(key)
        return keys

    def footprint(
        self, message: UpdateMessage, resolver: NameResolver
    ) -> Footprint:
        """The normalized footprint of ``message`` (cached)."""
        self.validate()
        return self.lookup(message, resolver)

    @staticmethod
    def key(message: UpdateMessage) -> object:
        """What a footprint is a function of, beyond the epoch."""
        if message.is_schema_change:
            return id(message)
        return message.source, message.payload.relation

    def lookup(
        self, message: UpdateMessage, resolver: NameResolver
    ) -> Footprint:
        """:meth:`footprint` without the epoch check."""
        key = self.key(message)
        entry = self._entries.get(key)
        if entry is not None:
            self.metrics.footprint_cache_hits += 1
            return entry[1]
        self.metrics.footprint_cache_misses += 1
        queries = self._view_queries()
        raw = footprint_of_update(
            message,
            queries,
            None if self._rewritten is None else self._rewrite,
            resolver,
            _footprint_once,
        )
        normalized = self._normalized.get(raw)
        if normalized is None:
            names = raw.names_read(resolver)
            normalized = self._normalized[raw] = (
                raw.normalized(resolver),
                names,
            )
            _index(self._raw_readers, names, raw)
        footprint, names = normalized
        if not message.is_schema_change:
            names = names | names_read_by_update(message, queries)
        self._entries[key] = (message, footprint, names)
        _index(self._key_readers, names, key)
        return footprint

    def _rewrite(self, message: UpdateMessage) -> object:
        """A queued schema change's speculative rewrite, made again only
        if the view queries changed; one that read live source schemas
        is not kept, and marks its entry volatile."""
        queries = self._view_queries()
        entry = self._rewrites.get(id(message))
        if entry is not None and entry[1] == queries:
            return entry[2]
        before = self._source_reads()
        rewritten = self._rewritten(message)
        if self._source_reads() == before:
            self._rewrites[id(message)] = (message, queries, rewritten)
        else:
            self._volatile.add(id(message))
        return rewritten


class IncrementalDependencyGraph:
    """A dependency graph maintained alongside the UMQ.

    Registers as a mutation listener on the queue and keeps a mirror of
    the flattened message list in *absolute* node ids (``self._order``
    lists the live ids in queue order, so removals and reorders never
    renumber a surviving node), the per-``(source, relation)`` touch
    chains whose consecutive pairs are the semantic edges, and the
    footprint classes from which the concurrent edges follow.
    ``dependencies()`` expands the edges in current queue positions,
    bit-identical to the from-scratch §4.1 builder over the same
    messages (``tests/detection_oracle.py``).  It also answers the
    parallel executor's questions (Definition 7 / Theorem 2):
    :meth:`ready_units` and :meth:`unit_successors`.
    """

    def __init__(
        self,
        umq: UpdateMessageQueue,
        view_queries: Callable[[], object],
        rewritten_query: Callable[[UpdateMessage], object] | None = None,
        epoch: Callable[[], object] | None = None,
        metrics=None,
        source_reads: Callable[[], int] = lambda: 0,
    ) -> None:
        self._umq = umq
        self.cache = FootprintCache(
            view_queries, rewritten_query, epoch, metrics, source_reads
        )
        self.metrics = self.cache.metrics
        #: live absolute node ids in queue order
        self._order: list[int] = []
        #: absolute id -> message
        self._message_of: dict[int, UpdateMessage] = {}
        #: next absolute id handed to an arrival
        self._next_abs = 0
        #: lazy absolute id -> queue position map
        self._pos: dict[int, int] | None = None
        self._resolver = NameResolver()
        #: the queued lineage links (resolver inputs), as absolute ids
        self._lineage: set[int] = set()
        #: (source, relation) -> absolute ids touching it, queue order
        self._chains: dict[tuple[str, str], list[int]] = {}
        #: lazy set of the chains' consecutive pairs (semantic edges)
        self._sd: set[tuple[int, int]] | None = None
        #: absolute id -> the footprint value the node is filed under
        self._filed: dict[int, Footprint] = {}
        #: footprint value -> the absolute ids filed under it (a class)
        self._classes: dict[Footprint, _Class] = {}
        #: cache key -> the absolute ids under it (one lookup files all)
        self._keyed: dict[object, set[int]] = {}
        #: the cache generation of the last full refile: until the cache
        #: is cleared again, every node is filed under its key's entry
        self._filed_generation = -1
        #: queued schema change -> {class footprint: does it conflict?},
        #: a verdict for every class
        self._verdicts: dict[int, dict[Footprint, bool]] = {}
        #: the concurrent edges: sum over classes of conflicting changes
        #: x members, less each change in its own conflicting class
        self._cd_edges = 0
        #: resolver name -> the queued changes whose verdicts read it
        self._change_readers: dict[tuple, set[int]] = {}
        self._change_names: dict[int, set[tuple]] = {}
        #: modeled work since the last ``consume_work`` drain
        self._work_full_nodes = 0
        self._work_full_edges = 0
        self._work_inc_nodes = 0
        self._work_inc_edges = 0
        umq.add_listener(self)
        self._rebuild(clear_cache=False)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def detach(self) -> None:
        """Unhook from the UMQ (when this substrate is replaced)."""
        self._umq.remove_listener(self)

    def rebuild(self) -> None:
        """Force a from-scratch rebuild.

        The parallel executor removes an SC-bearing unit from the queue
        at *dispatch* (before its maintenance runs) and calls this once
        the unit's view rewrite commits: by then every cached footprint
        and every concurrent edge may be stale.
        """
        self._rebuild(clear_cache=True)

    # ------------------------------------------------------------------
    # public views
    # ------------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self._order)

    @property
    def edge_count(self) -> int:
        return len(self._semantic()) + self._cd_edges

    def _positions(self) -> dict[int, int]:
        if self._pos is None:
            self._pos = {
                absolute: position
                for position, absolute in enumerate(self._order)
            }
        return self._pos

    def _semantic(self) -> set[tuple[int, int]]:
        """Semantic edges: consecutive touches of one relation (a set —
        a rename touches two relations and may repeat a pair)."""
        if self._sd is None:
            self._sd = {
                pair
                for chain in self._chains.values()
                for pair in zip(chain, chain[1:])
            }
        return self._sd

    def _conflicts(self, sc_abs: int, footprint: Footprint) -> bool:
        """Does the queued schema change ``sc_abs`` invalidate the class
        ``footprint``?  One real test per (change, class, names read)."""
        memo = self._verdicts[sc_abs]
        verdict = memo.get(footprint)
        if verdict is None:
            change = self._message_of[sc_abs]
            verdict = memo[footprint] = footprint.conflicted_by(
                change.source, change.payload, self._resolver
            )
        return verdict

    def _invalidated(self, sc_abs: int) -> list[set[int]]:
        """The classes (as member sets) a queued schema change conflicts
        with; their members, itself excepted, are its dependents."""
        return [
            self._classes[footprint]
            for footprint, verdict in self._verdicts[sc_abs].items()
            if verdict
        ]

    def dependencies(self) -> list[Dependency]:
        """Edges in current queue positions (Definition 6 indices)."""
        position_of = self._positions()
        edges = [
            Dependency(position_of[before], position_of[after], _SD)
            for before, after in self._semantic()
        ]
        for sc_abs in self._verdicts:
            sc_position = position_of[sc_abs]
            for members in self._invalidated(sc_abs):
                edges.extend(
                    Dependency(sc_position, position_of[member], _CD)
                    for member in members
                    if member != sc_abs
                )
        return edges

    def detection(self) -> DetectionResult:
        """The round's size, and its legal order over the class graph:
        a conflicting class is one node between its changes and members."""
        position_of = self._positions()
        adjacency: list[list[int]] = [[] for _ in self._order]
        for before, after in self._semantic():
            adjacency[position_of[before]].append(position_of[after])
        class_node: dict[int, int] = {}
        for sc_abs in self._verdicts:
            for members in self._invalidated(sc_abs):
                node = class_node.get(id(members))
                if node is None:
                    node = class_node[id(members)] = len(adjacency)
                    adjacency.append([position_of[m] for m in members])
                adjacency[position_of[sc_abs]].append(node)
        order = legal_order(adjacency, self.node_count)
        return DetectionResult(self.node_count, self.edge_count, order)

    def footprint_at(self, index: int) -> Footprint:
        """Cached normalized footprint of the message at queue position
        ``index``."""
        return self.cache.footprint(
            self._message_of[self._order[index]], self._resolver
        )

    @property
    def resolver(self) -> NameResolver:
        return self._resolver

    def consume_work(self) -> tuple[int, int, int, int]:
        """Drain the modeled-work counters accrued since the last drain.

        Returns ``(full_nodes, full_edges, inc_nodes, inc_edges)``:
        nodes/edges processed by from-scratch rebuild fallbacks versus
        by incremental updates (node insertions, conflict tests, edge
        remaps).  The scheduler charges virtual detection time from
        these, so they count what the paper's explicit O(mn) algorithm
        would touch — not the class-level work actually performed.
        """
        drained = (
            self._work_full_nodes,
            self._work_full_edges,
            self._work_inc_nodes,
            self._work_inc_edges,
        )
        self._work_full_nodes = 0
        self._work_full_edges = 0
        self._work_inc_nodes = 0
        self._work_inc_edges = 0
        return drained

    # ------------------------------------------------------------------
    # unit-level scheduling API (the parallel executor's questions)
    # ------------------------------------------------------------------

    def unit_dependencies(self) -> set[tuple[int, int]]:
        """Inter-unit ``(before_unit, after_unit)`` index pairs, read off
        the chains and the conflicting classes; a pair inside one unit is
        internal (the unit is maintained atomically) and dropped."""
        units = self._umq.units
        if len(units) < 2:
            return set()
        indices = (i for i, unit in enumerate(units) for _ in unit.messages)
        unit_of = dict(zip(self._order, indices))
        pairs = {(unit_of[a], unit_of[b]) for a, b in self._semantic()}
        for sc_abs in self._verdicts:
            pairs.update(
                (unit_of[sc_abs], unit_of[member])
                for members in self._invalidated(sc_abs)
                for member in members
            )
        return {(before, after) for before, after in pairs if before != after}

    def ready_units(self) -> list[int]:
        """Queue indices of units with no queued predecessor.

        These form an antichain of the unit dependency DAG: Theorem 2
        licenses maintaining them in any order, hence concurrently.
        Predecessors that already *left* the queue are the scheduler's
        to gate (it knows which are still running).
        """
        blocked = {after for _before, after in self.unit_dependencies()}
        return [
            index
            for index in range(len(self._umq.units))
            if index not in blocked
        ]

    def unit_successors(self, index: int) -> set[int]:
        """Unit indices that must wait for unit ``index`` to finish."""
        return {
            after
            for before, after in self.unit_dependencies()
            if before == index
        }

    # ------------------------------------------------------------------
    # chains and classes
    # ------------------------------------------------------------------

    def _append(self, message: UpdateMessage) -> int:
        """Mirror a message at the tail of the queue (unfiled, and a
        schema change not yet counted)."""
        absolute = self._next_abs
        self._next_abs += 1
        self._order.append(absolute)
        self._message_of[absolute] = message
        if self._pos is not None:
            self._pos[absolute] = len(self._order) - 1
        self._keyed.setdefault(self.cache.key(message), set()).add(absolute)
        if lineage_affecting(message):
            self._lineage.add(absolute)
        self._link(absolute)
        return absolute

    def _relink(self) -> None:
        """Re-derive the (order-dependent) touch chains."""
        self._chains = {}
        self._pos = self._sd = None
        for absolute in self._order:
            self._link(absolute)

    def _link(self, absolute: int) -> None:
        """Append a node to its chains (a known pair set gains the new
        consecutive pairs)."""
        message = self._message_of[absolute]
        for relation in message.touched_relations():
            chain = self._chains.setdefault((message.source, relation), [])
            if chain and self._sd is not None:
                self._sd.add((chain[-1], absolute))
            chain.append(absolute)

    def _file(self, absolutes) -> None:
        """File nodes of one cache key under their (cached) footprint
        value: one lookup, however many nodes."""
        self._place(
            absolutes,
            self.cache.lookup(
                self._message_of[next(iter(absolutes))], self._resolver
            ),
        )

    def _place(self, absolutes, footprint: Footprint) -> None:
        """File the unfiled nodes of one cache key under ``footprint``;
        each gains an edge from every counted change conflicting with
        its class (a schema change's key holds it alone)."""
        members = self._classes.get(footprint)
        if members is None:
            members = self._classes[footprint] = _Class()
            if self._verdicts:
                members.conflicting = sum(
                    self._conflicts(sc_abs, footprint)
                    for sc_abs in self._verdicts
                )
        members.update(absolutes)
        self._filed.update(dict.fromkeys(absolutes, footprint))
        if members.conflicting:
            self._cd_edges += members.conflicting * len(absolutes)
            memo = self._verdicts.get(next(iter(absolutes)))
            if memo is not None:
                self._cd_edges -= memo[footprint]

    def _unplace(self, absolute: int) -> None:
        """Undo :meth:`_place` for one node; an emptied class leaves
        every verdict memo."""
        footprint = self._filed.pop(absolute)
        members = self._classes[footprint]
        if members.conflicting:
            memo = self._verdicts.get(absolute)
            self._cd_edges -= members.conflicting - (
                memo is not None and memo[footprint]
            )
        members.discard(absolute)
        if not members:
            del self._classes[footprint]
            for memo in self._verdicts.values():
                del memo[footprint]

    def _count_change(self, sc_abs: int, known=None) -> None:
        """Count a queued change's concurrent edges: a verdict on every
        class (``known`` ones reused), filed under the names it read."""
        change = self._message_of[sc_abs]
        memo = self._verdicts[sc_abs] = {}
        for footprint, members in self._classes.items():
            verdict = None if known is None else known.get(footprint)
            if verdict is None:
                verdict = footprint.conflicted_by(
                    change.source, change.payload, self._resolver
                )
            memo[footprint] = verdict
            if verdict:
                members.conflicting += 1
                self._cd_edges += len(members) - (sc_abs in members)
        names = self._change_names[sc_abs] = names_read_by_change(
            change.source, change.payload, self._resolver
        )
        _index(self._change_readers, names, sc_abs)

    def _uncount_change(self, sc_abs: int) -> None:
        """Undo :meth:`_count_change`."""
        for footprint, verdict in self._verdicts.pop(sc_abs).items():
            if verdict:
                members = self._classes[footprint]
                members.conflicting -= 1
                self._cd_edges -= len(members) - (sc_abs in members)
        _unindex(
            self._change_readers, self._change_names.pop(sc_abs), sc_abs
        )

    def _refile(self) -> None:
        """File every queued node afresh, one lookup per cache key (the
        DUs of one relation together, a schema change alone), then count
        every change, reusing the verdicts it remembers."""
        known, self._verdicts = self._verdicts, {}
        self._filed, self._classes = {}, {}
        self._change_readers, self._change_names = {}, {}
        self._cd_edges = 0
        for group in self._keyed.values():
            self._file(group)
        for sc_abs, memo in known.items():
            self._count_change(sc_abs, memo)
        self._filed_generation = self.cache.generation

    def _rederive(self, keys, changes=(), arrival: int | None = None):
        """Re-file the nodes of the cache ``keys`` whose entries were
        dropped, re-test the ``changes`` whose names were re-rooted,
        then file and count a schema-change ``arrival`` — or refile
        everything, if the cache was cleared since the last full refile
        (its nodes may be filed under another epoch's value)."""
        if self.cache.generation != self._filed_generation:
            for sc_abs in changes:
                self._verdicts[sc_abs] = {}
            if arrival is not None:
                self._verdicts[arrival] = {}
            self._refile()
            return
        for sc_abs in changes:
            self._uncount_change(sc_abs)
        for key in keys:
            group = self._keyed.get(key)
            if not group:
                continue  # a departed relation's DU entry
            footprint = self.cache.lookup(
                self._message_of[next(iter(group))], self._resolver
            )
            if footprint != self._filed[next(iter(group))]:
                for absolute in group:
                    self._unplace(absolute)
                self._place(group, footprint)
        for sc_abs in changes:
            self._count_change(sc_abs)
        if arrival is not None:
            self._file((arrival,))
            self._count_change(arrival)

    # ------------------------------------------------------------------
    # from-scratch rebuild (the fallback and the oracle's twin)
    # ------------------------------------------------------------------

    def _rebuild(self, clear_cache: bool) -> None:
        """Recompute the mirror and the resolver from the queue; charged
        as a from-scratch build.

        ``clear_cache`` is set when the rename lineage set changed
        otherwise than by an arrival (the resolver is a normalization
        input the epoch cannot see); view version bumps clear the cache
        through the epoch check instead.
        """
        self._order, self._message_of, self._keyed = [], {}, {}
        self._chains, self._pos, self._sd = {}, None, None
        self._lineage = set()
        for message in self._umq.messages():
            self._append(message)
        if clear_cache:
            self.cache.clear()
        self.cache.validate()
        self._resolver = _resolver_of(self._umq.messages())
        self._verdicts = {
            absolute: {}
            for absolute in self._order
            if self._message_of[absolute].is_schema_change
        }
        self._refile()
        self._charge_rebuild()

    # ------------------------------------------------------------------
    # UMQ listener protocol
    # ------------------------------------------------------------------

    def _charge_incremental(self, nodes: int, edges: int) -> None:
        """Count one incremental update and its modelled work."""
        self.metrics.incremental_graph_updates += 1
        self._work_inc_nodes += nodes
        self._work_inc_edges += edges

    def _charge_rebuild(self) -> None:
        """Count a mutation charged as a from-scratch build: every node,
        every edge."""
        self.metrics.graph_rebuilds += 1
        self._work_full_nodes += len(self._order)
        self._work_full_edges += self.edge_count

    def umq_received(self, message: UpdateMessage) -> None:
        queued_changes = len(self._verdicts)
        absolute = self._append(message)
        self.cache.validate()
        if not message.is_schema_change:
            # Charged O(m) — only the queued schema changes can depend
            # on a DU — and tested only against a class it founds.
            self._charge_incremental(1, queued_changes)
            self._file((absolute,))
            return
        # Its source commit may have drifted the live schemas a
        # speculative rewrite read; a lineage link re-roots one name.
        keys = self.cache.drop_volatile()
        changes: set[int] = set()
        name = self._resolver.extend(message)
        if name is not None:
            keys |= self.cache.invalidate(name)
            changes = self._change_readers.get(name, set()).copy()
        self._rederive(keys, changes, arrival=absolute)
        if lineage_affecting(message):
            # Charged as the from-scratch build it replaces.
            self._charge_rebuild()
            return
        # Charged as the explicit sweep: the new change against every
        # queued footprint (O(n)), every queued change against the new
        # footprint (O(m)), and the queued-change pairs re-tested
        # (O(m^2)).
        self._charge_incremental(
            1, len(self._order) - 1 + queued_changes * queued_changes
        )

    def _remove_span(self, index: int, count: int) -> None:
        """Drop the ``count`` nodes at queue positions ``index``..;
        O(classes + chain length) per node.  The edge tally is the fall
        of the running total: an edge between two co-removed nodes once."""
        edges_before = self._cd_edges
        for absolute in self._order[index : index + count]:
            if absolute in self._verdicts:
                self._uncount_change(absolute)
            self._unplace(absolute)
            message = self._message_of.pop(absolute)
            _unindex(self._keyed, (self.cache.key(message),), absolute)
            for relation in message.touched_relations():
                self._chains[message.source, relation].remove(absolute)
        del self._order[index : index + count]
        self._pos = self._sd = None
        self._charge_incremental(count, edges_before - self._cd_edges)

    def _departed(self, unit: MaintenanceUnit) -> bool:
        """Forget a departing unit's cached footprints; did it carry a
        lineage link (so the resolver changes for the survivors)?"""
        for message in unit:
            self.cache.discard(message)
        return any(lineage_affecting(message) for message in unit)

    def umq_removed_head(self, unit: MaintenanceUnit) -> None:
        lineage = self._departed(unit)
        if unit.has_schema_change:
            # The unit's maintenance may have rewritten the view
            # definition(s): every footprint may change.  The epoch
            # check spots the version bump; lineage departures
            # additionally change the resolver.
            self._rebuild(clear_cache=lineage)
        else:
            self._remove_span(0, len(unit.messages))

    def umq_removed_unit(
        self, unit: MaintenanceUnit, index: int
    ) -> None:
        """Mid-queue departure: the parallel executor dispatched a unit.

        Dispatch precedes maintenance, so no view rewrite has happened
        yet and surviving footprints are still valid — plain node drops
        suffice even for SC-bearing units (the scheduler calls
        :meth:`rebuild` after such a unit *commits*).  Removing a
        lineage link, however, changes the resolver for the survivors
        immediately, so that case falls back to a rebuild.
        """
        if self._departed(unit):
            self._rebuild(clear_cache=True)
            return
        # The unit already left the queue, but our mirror still holds
        # it: its span starts where the survivors at ``index`` now sit.
        start = sum(
            len(earlier) for earlier in self._umq.units[:index]
        )
        self._remove_span(start, len(unit.messages))

    def umq_requeued_front(self, unit: MaintenanceUnit) -> None:
        """An aborted unit re-entered at the head (rare abort path)."""
        self._rebuild(
            clear_cache=any(
                lineage_affecting(message) for message in unit
            )
        )

    def umq_reordered(self, units: list[MaintenanceUnit]) -> None:
        absolute_of = {
            id(message): absolute
            for absolute, message in self._message_of.items()
        }
        order = [
            absolute_of[id(message)] for unit in units for message in unit
        ]
        if self._lineage and self._resolver != _resolver_of(
            self._message_of[absolute]
            for absolute in order
            if absolute in self._lineage
        ):
            # Rename chains make the resolver order-dependent.  A legal
            # order keeps each lineage's order (its links are chained
            # by semantic edges), so this is a reorder that broke one.
            self._rebuild(clear_cache=True)
            return
        # Classes and verdicts are order-free: only the order itself
        # and the semantic chains change (O(n)) — and a legal order
        # keeps every chain's order, hence the chains themselves.
        self._order = order
        position_of = self._pos = {
            absolute: position for position, absolute in enumerate(order)
        }
        if not all(
            position_of[before] < position_of[after]
            for before, after in self._semantic()
        ):
            self._relink()
        if not self._lineage:
            self._charge_incremental(len(self._order), self._cd_edges)
            return
        # Charged as the rebuild it replaces, and re-deriving what that
        # rebuild's cache clear would have: the volatile entries (and
        # everything, after a view-version bump).
        self.cache.validate()
        self._rederive(self.cache.drop_volatile())
        self._charge_rebuild()
