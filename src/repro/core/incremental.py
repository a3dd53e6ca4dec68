"""Incremental detection substrate: footprint cache + live graph.

Every detection round — pessimistic pre-exec (Figure 6 line 1), every
broken-query abort, and every quarantine-deferral pass — used to rebuild
the full dependency graph from scratch: recompute every message
footprint and re-run the O(mn) CD sweep of Section 4.1.1.  This module
keeps the graph alive beside the UMQ and makes a queue mutation cost
schema changes x footprint *classes*, not schema changes x queue length:

* :class:`FootprintCache` memoizes normalized maintenance footprints
  under an *epoch* key (the view-definition versions plus the count of
  schema changes ever received).  A data update's footprint is a
  function of its ``(source, relation)`` alone, so every DU on a
  relation shares one entry (and one :class:`Footprint` object); a
  schema change's footprint is per message.
* :class:`IncrementalDependencyGraph` mirrors the UMQ through its
  mutation-listener hooks and stores no edge at all:

  - *semantic* edges are the consecutive pairs of the
    per-``(source, relation)`` touch chains;
  - *concurrent* edges are a function of footprint values: every queued
    node is filed under its normalized footprint (its *class*), and
    each queued schema change memoizes one ``conflicted_by`` verdict per
    class.  The verdict depends only on the footprint value, the change
    and the :class:`~repro.core.dependencies.NameResolver`, and the
    resolver is replaced only by a rebuild — so the memo lives exactly
    as long as the resolver.

  No scheduler path builds a ``Dependency`` (``dependencies()`` expands
  them for tests and ABL-5): ``detection()`` orders a *class graph*,
  ``ready_units()`` reads chains and classes, and ``edge_count``, the
  edge tally of a removal and every modelled-work counter are
  arithmetic over class sizes.  The
  *modelled* work (``consume_work``) is still the paper's O(mn) — a DU
  arrival is charged m conflict tests, a rebuild n nodes plus every
  edge — because the scheduler turns it into virtual time; the *wall*
  work of a mutation is O(n + m * (classes + m)).

  ``receive`` files one node (a DU arrival runs no conflict test at
  all), ``remove_head``/``remove_unit`` unfile the departing nodes, and
  ``replace_order`` re-derives only the (order-dependent) chains.  A
  from-scratch rebuild — the twin of
  :func:`~repro.core.dependencies.find_dependencies`, which stays the
  property-test oracle — is the fallback when the resolver changes (a
  rename/restructure leaves or is reordered; one that arrives keeps the
  mirror and only re-files) and when the view definitions may have (an
  SC-bearing unit leaves the head, or commits after the parallel
  executor dispatched it mid-queue).

  Invalidation is one rule — a derived value is recomputed only when
  something it read changed; what each memo reads, and the rest of the
  derivation, is docs/ALGORITHMS.md §Incremental detection substrate.

The substrate also answers the parallel executor's scheduling questions
(Definition 7 / Theorem 2: *any* topological order is legal, so units
with no path between them may run concurrently): :meth:`ready_units`
returns the antichain of units with no unfinished predecessor still in
the queue, and :meth:`unit_successors` the units a given unit blocks.
"""

from __future__ import annotations

from typing import Callable

from ..sources.messages import (
    RenameAttribute,
    RenameRelation,
    RestructureRelations,
    SchemaChange,
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
)
from .detection import DetectionResult
from .graph import legal_order

#: edge kinds of the expanded ``Dependency`` tuples
_CD = DependencyKind.CONCURRENT
_SD = DependencyKind.SEMANTIC


def _footprint_once(query, exclude_aliases=frozenset()) -> Footprint:
    """:func:`footprint_of_query`, once per (immutable) query object."""
    return query.derived(footprint_of_query, exclude_aliases)


def _unfile(groups: dict, key, absolute: int) -> None:
    """Drop ``absolute`` from ``groups[key]``, and an emptied group."""
    members = groups[key]
    members.discard(absolute)
    if not members:
        del groups[key]


def lineage_affecting(message: UpdateMessage) -> bool:
    """Does this message extend a rename lineage (resolver input)?"""
    return isinstance(
        message.payload,
        (RenameRelation, RenameAttribute, RestructureRelations),
    )


class FootprintCache:
    """Normalized maintenance footprints, memoized per epoch.

    A data update is keyed by its ``(source, relation)`` — its footprint
    depends on nothing else, so all DUs on one relation share one entry
    and one :class:`Footprint` object; a schema change is keyed by
    message identity.

    ``epoch`` is a zero-argument callable returning a hashable key that
    must change whenever cached footprints could change for reasons the
    owner cannot see locally: the view-definition versions (bumped by
    every committed or speculative schema rewrite installed on the view)
    and the number of schema changes ever received (source schemas only
    drift when a schema change commits).  A changed epoch clears the
    cache wholesale; the substrate additionally clears it explicitly
    when the rename lineage set changes (normalization input).
    :meth:`footprint` checks the epoch on every call; a caller sweeping
    many messages inside one queue mutation calls :meth:`validate` once
    and then :meth:`lookup`.

    A miss after a clear is cheap: a raw footprint lives on its query
    object, a speculative rewrite is kept per (view queries, message)
    unless ``source_reads`` (VS's live-schema reads) moved in making it.
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
        #: key -> (message, footprint); holding the message pins the
        #: ``id`` a schema change is keyed by
        self._entries: dict[object, tuple[UpdateMessage, Footprint]] = {}
        #: id(schema change) -> (message, view queries read, rewrite);
        #: pins the message: a leaked entry is memory, not a reused id
        self._rewrites: dict[int, tuple[UpdateMessage, object, object]] = {}
        #: raw footprint -> normalized; cleared with ``_entries``
        self._normalized: dict[Footprint, Footprint] = {}
        self._metrics = metrics
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

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
        if self._entries:
            self.invalidations += 1
        self._entries.clear()
        self._normalized.clear()

    def discard(self, message: UpdateMessage) -> None:
        """Forget a departing schema change (DU entries are shared by
        the relation's other updates and stay)."""
        self._entries.pop(id(message), None)
        self._rewrites.pop(id(message), None)

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
            self.hits += 1
            if self._metrics is not None:
                self._metrics.footprint_cache_hits += 1
            return entry[1]
        self.misses += 1
        if self._metrics is not None:
            self._metrics.footprint_cache_misses += 1
        raw = footprint_of_update(
            message,
            self._view_queries(),
            None if self._rewritten is None else self._rewrite,
            resolver,
            _footprint_once,
        )
        footprint = self._normalized.get(raw)
        if footprint is None:
            footprint = self._normalized[raw] = raw.normalized(resolver)
        self._entries[key] = (message, footprint)
        return footprint

    def _rewrite(self, message: UpdateMessage) -> object:
        """A queued schema change's speculative rewrite, made again only
        if the view queries changed (per epoch, if VS read live schemas)."""
        queries = self._view_queries()
        entry = self._rewrites.get(id(message))
        if entry is not None and entry[1] == queries:
            return entry[2]
        before = self._source_reads()
        rewritten = self._rewritten(message)
        if self._source_reads() == before:
            self._rewrites[id(message)] = (message, queries, rewritten)
        return rewritten


class IncrementalDependencyGraph:
    """A dependency graph maintained alongside the UMQ.

    Registers as a mutation listener on the queue and keeps a mirror of
    the flattened message list in *absolute* node ids (``self._order``
    lists the live ids in queue order, so removals and reorders never
    renumber a surviving node), the per-``(source, relation)`` touch
    chains whose consecutive pairs are the semantic edges, and the
    footprint classes from which the concurrent edges follow (see the
    module docstring).  ``dependencies()`` expands the edges in current
    queue positions, bit-identical to a from-scratch
    :func:`~repro.core.dependencies.find_dependencies` over the same
    messages.
    """

    def __init__(
        self,
        umq: UpdateMessageQueue,
        view_queries: Callable[[], object],
        rewritten_query: Callable[[UpdateMessage], object] | None = None,
        epoch: Callable[[], object] | None = None,
        metrics=None,
        attach: bool = True,
        source_reads: Callable[[], int] = lambda: 0,
    ) -> None:
        self._umq = umq
        self._metrics = metrics
        self.cache = FootprintCache(
            view_queries, rewritten_query, epoch, metrics, source_reads
        )
        #: live absolute node ids in queue order
        self._order: list[int] = []
        #: absolute id -> message
        self._message_of: dict[int, UpdateMessage] = {}
        #: next absolute id handed to an arrival
        self._next_abs = 0
        #: lazy absolute id -> queue position map
        self._pos: dict[int, int] | None = None
        self._resolver = NameResolver([])
        self._lineage_count = 0
        #: (source, relation) -> absolute ids touching it, queue order
        self._chains: dict[tuple[str, str], list[int]] = {}
        #: lazy set of the chains' consecutive pairs (semantic edges)
        self._sd: set[tuple[int, int]] | None = None
        #: absolute id -> the footprint value the node is filed under
        self._filed: dict[int, Footprint] = {}
        #: footprint value -> the absolute ids filed under it (a class)
        self._classes: dict[Footprint, set[int]] = {}
        #: cache key -> the absolute ids under it (one lookup files all)
        self._keyed: dict[object, set[int]] = {}
        #: queued schema change -> {footprint value: does it conflict?}
        self._verdicts: dict[int, dict[Footprint, bool]] = {}
        # -- counters ---------------------------------------------------
        self.rebuilds = 0
        self.incremental_updates = 0
        #: modeled work since the last ``consume_work`` drain
        self._work_full_nodes = 0
        self._work_full_edges = 0
        self._work_inc_nodes = 0
        self._work_inc_edges = 0
        if attach:
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
        return len(self._semantic()) + self._concurrent_count()

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
        ``footprint``?  One real test per (change, class, resolver)."""
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
            members
            for footprint, members in self._classes.items()
            if self._conflicts(sc_abs, footprint)
        ]

    def _dependents(self, sc_abs: int) -> int:
        """Concurrent out-degree of a queued schema change."""
        return sum(
            len(members) - (sc_abs in members)
            for members in self._invalidated(sc_abs)
        )

    def _concurrent_count(self) -> int:
        return sum(self._dependents(sc_abs) for sc_abs in self._verdicts)

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
        """Mirror a message at the tail of the queue (unfiled)."""
        absolute = self._next_abs
        self._next_abs += 1
        self._order.append(absolute)
        self._message_of[absolute] = message
        if self._pos is not None:
            self._pos[absolute] = len(self._order) - 1
        self._keyed.setdefault(self.cache.key(message), set()).add(absolute)
        if message.is_schema_change:
            self._verdicts[absolute] = {}
        self._lineage_count += lineage_affecting(message)
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
        footprint = self.cache.lookup(
            self._message_of[next(iter(absolutes))], self._resolver
        )
        self._filed.update(dict.fromkeys(absolutes, footprint))
        self._classes.setdefault(footprint, set()).update(absolutes)

    def _refile(self) -> None:
        """File every queued node afresh, one lookup per cache key (the
        DUs of one relation together, a schema change alone)."""
        self._filed = {}
        self._classes = {}
        for group in self._keyed.values():
            self._file(group)

    # ------------------------------------------------------------------
    # from-scratch rebuild (the fallback and the oracle's twin)
    # ------------------------------------------------------------------

    def _rebuild(self, clear_cache: bool) -> None:
        """Recompute the mirror from the queue, then :meth:`_resolve`."""
        self._order, self._message_of, self._keyed = [], {}, {}
        self._chains, self._verdicts, self._pos, self._sd = {}, {}, None, None
        self._lineage_count = 0
        for message in self._umq.messages():
            self._append(message)
        self._resolve(clear_cache)

    def _resolve(self, clear_cache: bool) -> None:
        """A new resolver over the mirrored queue: every node re-filed,
        every verdict dropped; charged as a from-scratch build.

        ``clear_cache`` is set when the rename lineage set changed (the
        resolver is a normalization input the epoch cannot see); view
        version bumps clear the cache through the epoch check instead.
        """
        if clear_cache:
            self.cache.clear()
        self.cache.validate()
        self._resolver = NameResolver(self._umq.messages())
        self._verdicts = {sc_abs: {} for sc_abs in self._verdicts}
        self._refile()
        self.rebuilds += 1
        if self._metrics is not None:
            self._metrics.graph_rebuilds += 1
        self._work_full_nodes += len(self._order)
        self._work_full_edges += self.edge_count

    # ------------------------------------------------------------------
    # UMQ listener protocol
    # ------------------------------------------------------------------

    def _charge_incremental(self, nodes: int, edges: int) -> None:
        """Count one incremental update and its modelled work."""
        self.incremental_updates += 1
        if self._metrics is not None:
            self._metrics.incremental_graph_updates += 1
        self._work_inc_nodes += nodes
        self._work_inc_edges += edges

    def umq_received(self, message: UpdateMessage) -> None:
        queued_changes = len(self._verdicts)
        absolute = self._append(message)
        if lineage_affecting(message):
            # The resolver gains a lineage link: every normalized
            # footprint may change, so may every concurrent edge.  The
            # chains only grew at the tail, so they stay.
            self._resolve(clear_cache=True)
            return
        self.cache.validate()
        if not message.is_schema_change:
            # Charged O(m) — only the queued schema changes can depend
            # on a DU — but nothing is tested until an edge is asked for.
            self._charge_incremental(1, queued_changes)
            self._file((absolute,))
            return
        # A (non-lineage) schema change.  Its source commit may have
        # drifted the source schemas that speculative rewrites consult
        # (the epoch just cleared the cache), so every node is re-filed
        # under a fresh footprint.  Charged as the explicit sweep: the
        # new change against every queued footprint (O(n)), every queued
        # change against the new footprint (O(m)), and the queued-change
        # pairs re-tested (O(m^2)).
        self._charge_incremental(
            1, len(self._order) - 1 + queued_changes * queued_changes
        )
        self._refile()

    def _remove_span(self, index: int, count: int) -> None:
        """Drop the ``count`` nodes at queue positions ``index``..;
        O(m + classes + chain length) per node."""
        dropped = 0
        for absolute in self._order[index : index + count]:
            # Concurrent degree of the departing node; an edge to a
            # co-removed node is gone before its other end is counted.
            footprint = self._filed.pop(absolute)
            if absolute in self._verdicts:
                dropped += self._dependents(absolute)
                del self._verdicts[absolute]
            dropped += sum(
                self._conflicts(sc_abs, footprint)
                for sc_abs in self._verdicts
            )
            message = self._message_of.pop(absolute)
            _unfile(self._classes, footprint, absolute)
            _unfile(self._keyed, self.cache.key(message), absolute)
            for relation in message.touched_relations():
                self._chains[message.source, relation].remove(absolute)
        del self._order[index : index + count]
        self._pos = self._sd = None
        self._charge_incremental(count, dropped)

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
        if self._lineage_count:
            # Rename chains make the resolver order-dependent; a
            # reorder can change every normalized footprint.
            self._rebuild(clear_cache=True)
            return
        # Classes and verdicts are order-free: only the order itself
        # and the semantic chains change (O(n)).
        absolute_of = {
            id(message): absolute
            for absolute, message in self._message_of.items()
        }
        self._order = [
            absolute_of[id(message)] for unit in units for message in unit
        ]
        self._relink()
        self._charge_incremental(len(self._order), self._concurrent_count())
