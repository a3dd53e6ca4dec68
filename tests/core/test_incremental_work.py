"""What the incremental substrate *charges* and what it *executes*.

Two deterministic checks, both independent of the figures:

* the modelled work — the ``(full_nodes, full_edges, inc_nodes,
  inc_edges)`` that ``consume_work()`` drains — after every step of one
  fixed, seeded interleaving equals the fixture recorded at 3ad7cc1
  (``tests/experiments/golden/incremental_work.json``).  The scheduler
  turns these tallies into virtual detection time, so a counting slip
  shows up here as "step 37, inc_edges 212 != 209" rather than as a
  moved FIG-10 point.  To re-record after a deliberate change of the
  cost model: ``json.dump({name: run_tally(flag) for name, flag in
  ARMS.items()}, ...)``.
* the executed work — counted ``Footprint.conflicted_by`` and
  ``footprint_of_update`` calls of one rename arrival into a deep queue
  — is bounded by schema changes x footprint *classes*, not by schema
  changes x queue length, and is per change: a rename derives only its
  own footprint and tests only verdicts not seen before, a drop derives
  no DU footprint, a legal reorder derives nothing; a DU-only burst
  executes none at all (Fig. 8 in wall time).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

import repro.core.incremental as incremental_module
from repro.core.correction import correct
from repro.core.dependencies import Footprint
from repro.core.incremental import IncrementalDependencyGraph
from repro.core.scheduler import DynoScheduler
from repro.core.strategies import PESSIMISTIC
from repro.experiments.testbed import (
    RELATION_COUNT,
    SOURCE_NAMES,
    build_testbed,
    full_join_query,
    make_du_workload,
    relation_name,
    source_of_relation,
)
from repro.maintenance.vs import ViewSynchronizer
from repro.relational.query import RelationRef
from repro.relational.schema import RelationSchema
from repro.sources.messages import (
    DataUpdate,
    DropAttribute,
    DropRelation,
    RenameAttribute,
    RenameRelation,
    RestructureRelations,
    UpdateMessage,
)
from repro.sources.mkb import AttributeReplacement
from repro.views.umq import MaintenanceUnit, UpdateMessageQueue
from tests.builders import free_cost_model, with_relation_replaced
from tests.conftest import (
    STORE_SCHEMA,
    STOREITEMS_SCHEMA,
    build_bookstore,
)
from tests.detection_oracle import edge_set, find_dependencies, synthetic_queue

QUERY = full_join_query()
FIXTURE = (
    Path(__file__).parent.parent
    / "experiments"
    / "golden"
    / "incremental_work.json"
)
SEED = 20040330
STEPS = 240
FIELDS = ("full_nodes", "full_edges", "inc_nodes", "inc_edges")
#: fixture arm -> whether the graph is handed a ``rewritten_query``
ARMS = {"plain": False, "rewritten": True}


#: (source, root relation) -> alias in ``QUERY``
ALIASES = {(ref.source, ref.relation): ref.alias for ref in QUERY.relations}


def _speculative(message: UpdateMessage):
    """A pure stand-in for view synchronization: what ``QUERY`` would
    look like after ``message`` (only root names are recognised)."""
    payload = message.payload
    if isinstance(payload, RenameRelation):
        return (
            QUERY.with_relation_renamed(
                message.source, payload.old, payload.new
            ),
        )
    if isinstance(payload, RestructureRelations):
        # The merged relation stands in for the first dropped one (a
        # name no view query holds: only the rewrite's footprint can
        # make a later change of it conflict); the second is pruned.
        query = QUERY
        for relation, merged in zip(
            payload.dropped, (payload.new_schema.name, None)
        ):
            alias = ALIASES.get((message.source, relation))
            if alias is None:
                continue
            query = (
                with_relation_replaced(
                    query, alias, RelationRef(message.source, merged, alias)
                )
                if merged
                else query.without_relation(alias)
            )
        return (query,)
    alias = ALIASES.get((message.source, payload.relation))
    if alias is None:
        return (QUERY,)
    if isinstance(payload, RenameAttribute):
        return (QUERY.with_attribute_renamed(alias, payload.old, payload.new),)
    # A dropped attribute is repaired by swapping in the source's spare
    # relation (an MKB replacement): a name only the rewrite reads.
    return (
        with_relation_replaced(
            QUERY,
            alias,
            RelationRef(message.source, spare_of(message.source), alias),
        ),
    )


def spare_of(source: str) -> str:
    return f"Spare_{source}"


#: the six view relations, then one spare relation per source
OWNERS = [source_of_relation(i) for i in range(RELATION_COUNT)] + list(
    SOURCE_NAMES
)


class _World:
    """Message factory tracking the current name of every relation and
    attribute, so rename chains and restructures stay plausible."""

    def __init__(self) -> None:
        self._seqno: dict[str, int] = {}
        self._relation = [
            relation_name(i) for i in range(RELATION_COUNT)
        ] + [spare_of(source) for source in SOURCE_NAMES]
        self._attribute = [f"A{i + 1}" for i in range(len(OWNERS))]
        self._fresh = 0

    def _message(self, index: int, payload) -> UpdateMessage:
        source = OWNERS[index]
        seqno = self._seqno[source] = self._seqno.get(source, 0) + 1
        return UpdateMessage(source, seqno, float(seqno), payload)

    def _next(self, stem: str) -> str:
        self._fresh += 1
        return f"{stem}__v{self._fresh}"

    def du(self, index: int) -> UpdateMessage:
        schema = RelationSchema.of(self._relation[index], ["K"])
        return self._message(index, DataUpdate.insert(schema, []))

    def drop_attribute(self, index: int) -> UpdateMessage:
        return self._message(
            index, DropAttribute(self._relation[index], f"C{index + 1}")
        )

    def rename_relation(self, index: int) -> UpdateMessage:
        old = self._relation[index]
        new = self._relation[index] = self._next(f"N{index + 1}")
        return self._message(index, RenameRelation(old, new))

    def rename_attribute(self, index: int) -> UpdateMessage:
        old = self._attribute[index]
        new = self._attribute[index] = self._next(f"A{index + 1}")
        return self._message(
            index, RenameAttribute(self._relation[index], old, new)
        )

    def restructure(self, index: int) -> UpdateMessage:
        index %= RELATION_COUNT
        first = index - index % 2  # both view relations of one source
        dropped = (self._relation[first], self._relation[first + 1])
        merged = self._next("M")
        self._relation[first] = self._relation[first + 1] = merged
        return self._message(
            first,
            RestructureRelations(dropped, RelationSchema.of(merged, ["K"])),
        )


#: (op, weight) — arrivals dominate so several schema changes share
#: the queue with several data updates of one relation
OPS = (
    ("du", 40),
    ("drop_attribute", 7),
    ("rename_relation", 7),
    ("rename_attribute", 5),
    ("restructure", 4),
    ("remove_head", 12),
    ("remove_sc_unit", 5),
    ("remove_du_unit", 6),
    ("requeue_front", 5),
    ("reorder_merged", 9),
)


#: the ops that are ``_World`` message factories
ARRIVALS = tuple(name for name, _weight in OPS[:5])


def run_tally(rewritten: bool) -> list[list]:
    """``[op, full_nodes, full_edges, inc_nodes, inc_edges]`` per step
    of the fixed interleaving."""
    rng = random.Random(SEED)
    umq = UpdateMessageQueue()
    graph = IncrementalDependencyGraph(
        umq, lambda: (QUERY,), _speculative if rewritten else None
    )
    world = _World()
    removed: list[MaintenanceUnit] = []
    rows = [["construct", *graph.consume_work()]]
    names, weights = zip(*OPS)
    for _step in range(STEPS):
        op = rng.choices(names, weights)[0]
        index = rng.randrange(len(OWNERS))
        # mid-queue units that do / do not carry a schema change
        pool = [
            unit
            for unit in list(umq.units)[1:]
            if unit.has_schema_change == (op == "remove_sc_unit")
        ]
        if op in ARRIVALS:
            umq.receive(getattr(world, op)(index))
        elif op == "remove_head" and not umq.is_empty():
            removed.append(umq.remove_head())
        elif op in ("remove_sc_unit", "remove_du_unit") and pool:
            removed.append(umq.remove_unit(rng.choice(pool)))
        elif op == "requeue_front" and removed:
            umq.requeue_front(removed.pop())
        elif op == "reorder_merged" and len(umq) >= 2:
            units = list(umq.units)
            rng.shuffle(units)
            umq.replace_order(
                [MaintenanceUnit.merged(units[:2]), *units[2:]]
            )
        else:
            op = "skipped"
        rows.append([op, *graph.consume_work()])
    return rows


@pytest.mark.parametrize("arm", ARMS)
def test_modelled_work_matches_fixture(arm):
    expected = json.loads(FIXTURE.read_text())[arm]
    got = run_tally(ARMS[arm])
    assert len(got) == len(expected) == STEPS + 1 >= 150
    for step, (want, have) in enumerate(zip(expected, got)):
        assert have[0] == want[0], f"step {step}: op {have[0]} != {want[0]}"
        for name, wanted, had in zip(FIELDS, want[1:], have[1:]):
            assert had == wanted, (
                f"{arm} step {step} ({have[0]}), {name} {had} != {wanted}"
            )


def test_fixture_interleaving_covers_every_path():
    rows = json.loads(FIXTURE.read_text())["plain"]
    assert {op for op, *_ in rows} >= {"construct", *dict(OPS)}
    # Both the rebuild fallback and the incremental path are charged.
    assert sum(row[1] for row in rows) and sum(row[3] for row in rows)


def test_rename_arrival_work_is_per_class_not_per_message(monkeypatch):
    """200 DUs over the six view relations + 10 queued renames: one
    more rename arrival (a rebuild) runs at most ``m * (classes + m)``
    conflict tests and ``classes + m`` footprint computations — at
    3ad7cc1 it ran ~``m * n`` and ``n + m``."""
    umq = UpdateMessageQueue()
    graph = IncrementalDependencyGraph(umq, lambda: (QUERY,))
    queue = synthetic_queue(210, 10)
    for message in queue:
        umq.receive(message)
    classes = RELATION_COUNT
    assert sum(m.is_schema_change for m in queue) == 10

    counts = {"conflicted_by": 0, "footprint_of_update": 0}
    real_conflicted_by = Footprint.conflicted_by
    real_footprint_of_update = incremental_module.footprint_of_update

    def counting_conflicted_by(self, *args, **kwargs):
        counts["conflicted_by"] += 1
        return real_conflicted_by(self, *args, **kwargs)

    def counting_footprint_of_update(*args, **kwargs):
        counts["footprint_of_update"] += 1
        return real_footprint_of_update(*args, **kwargs)

    monkeypatch.setattr(Footprint, "conflicted_by", counting_conflicted_by)
    monkeypatch.setattr(
        incremental_module,
        "footprint_of_update",
        counting_footprint_of_update,
    )
    umq.receive(
        UpdateMessage("src1", 1000, 1000.0, RenameRelation("R1", "R1__w"))
    )
    graph.dependencies()
    m = 11
    assert graph.node_count == 211
    assert 0 < counts["conflicted_by"] <= m * (classes + m)
    assert 0 < counts["footprint_of_update"] <= classes + m


def _warm_queue():
    """200 DUs over the six view relations + 10 queued renames, every
    verdict already tested."""
    umq = UpdateMessageQueue()
    graph = IncrementalDependencyGraph(umq, lambda: (QUERY,))
    for message in synthetic_queue(210, 10):
        umq.receive(message)
    graph.dependencies()
    return umq, graph


def _count_calls(monkeypatch, owner, name, counts):
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def _verdicts_held(graph) -> set:
    return {
        (change, footprint)
        for change, memo in graph._verdicts.items()
        for footprint in memo
    }


def test_rename_arrival_pays_for_its_own_key(monkeypatch):
    """A rename into a warm queue extends the resolver (no
    ``NameResolver`` is built from the queue), derives one footprint —
    its own — and tests only verdicts it has not seen; it is still
    charged as a from-scratch build."""
    umq, graph = _warm_queue()
    counts: dict[str, int] = {}
    _count_calls(monkeypatch, incremental_module, "NameResolver", counts)
    _count_calls(
        monkeypatch, incremental_module, "footprint_of_update", counts
    )
    _count_calls(monkeypatch, Footprint, "conflicted_by", counts)
    held = _verdicts_held(graph)
    rebuilds = graph.metrics.graph_rebuilds
    graph.consume_work()

    umq.receive(
        UpdateMessage("src1", 1000, 1000.0, RenameRelation("R1", "R1__w"))
    )
    assert "NameResolver" not in counts
    assert counts["footprint_of_update"] == 1
    assert counts["conflicted_by"] == len(_verdicts_held(graph) - held) > 0
    assert graph.metrics.graph_rebuilds == rebuilds + 1
    assert graph.consume_work()[:2] == (211, graph.edge_count)
    assert edge_set(graph.dependencies()) == edge_set(
        find_dependencies(umq.messages(), QUERY)
    )


def test_drop_attribute_arrival_rederives_no_data_update(monkeypatch):
    """A non-lineage schema change re-derives no DU entry: a DU's
    footprint reads the view queries and the resolver, and neither
    moved."""
    umq, graph = _warm_queue()
    derived: list[UpdateMessage] = []
    real = incremental_module.footprint_of_update

    def recording(message, *args, **kwargs):
        derived.append(message)
        return real(message, *args, **kwargs)

    monkeypatch.setattr(incremental_module, "footprint_of_update", recording)
    umq.receive(
        UpdateMessage("src2", 1000, 1000.0, DropAttribute("R3", "C3"))
    )
    assert [message.is_schema_change for message in derived] == [True]
    assert edge_set(graph.dependencies()) == edge_set(
        find_dependencies(umq.messages(), QUERY)
    )


def test_legal_reorder_with_renames_queued_keeps_the_mirror(monkeypatch):
    """``replace_order`` with the order ``correct`` returns keeps every
    rename lineage's order, so the resolver is unchanged: no footprint
    is missed and no rebuild runs — though one is charged."""
    umq, graph = _warm_queue()
    units = correct(umq.messages(), graph.detection()).units
    assert len(units) < len(umq.units)  # the renames merged something
    counts: dict[str, int] = {}
    _count_calls(monkeypatch, IncrementalDependencyGraph, "_rebuild", counts)
    misses = graph.metrics.footprint_cache_misses
    rebuilds = graph.metrics.graph_rebuilds

    umq.replace_order(units)
    assert "_rebuild" not in counts
    assert graph.metrics.footprint_cache_misses == misses
    assert graph.metrics.graph_rebuilds == rebuilds + 1
    assert edge_set(graph.dependencies()) == edge_set(
        find_dependencies(umq.messages(), QUERY)
    )


def test_du_only_burst_never_enters_detection(monkeypatch):
    """Fig. 8 in wall time, by construction: on the spine's
    ``du_burst`` shape (pessimistic, DUs every 0.01 s so the queue runs
    deep; here at small scale) the schema-change flag is never raised,
    so ``detect_and_correct`` is never entered and not one
    ``conflicted_by`` test runs — detection costs a DU-only stream the
    O(1) flag check and nothing else."""
    counts = {"conflicted_by": 0, "detect_and_correct": 0}

    def counting(owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    counting(Footprint, "conflicted_by")
    counting(DynoScheduler, "detect_and_correct")
    testbed = build_testbed(PESSIMISTIC, tuples_per_relation=200)
    testbed.engine.schedule_workload(
        make_du_workload(testbed.tuples_per_relation, 60, 0.05, 0.01, seed=5)
    )
    testbed.run()
    assert testbed.metrics.maintained_updates == 60
    assert testbed.check_consistency()
    assert counts == {"conflicted_by": 0, "detect_and_correct": 0}


def test_du_only_burst_executes_per_probe_not_per_pending(monkeypatch):
    """The same burst, one layer down: the queue runs ~20 deep behind
    every probe, and SWEEP compensation evaluates each probe answer once
    per sign of the *netted* pending deltas, not once per pending delta.
    Kernel executes — counted, as the spine's tracer counts them, at
    every module that binds ``execute`` by name — stay within 5 per
    source round trip (source answer + partial join + at most two
    compensation signs + the final assembly's share), where per-delta
    compensation took over 20."""
    from repro.relational.executor import execute
    from tests.kernel_oracle import bindings_of

    counts = {"execute": 0}

    def counted(query, tables, plans=None):
        counts["execute"] += 1
        return execute(query, tables, plans)

    for module, name in bindings_of(execute):
        monkeypatch.setattr(module, name, counted)
    testbed = build_testbed(PESSIMISTIC, tuples_per_relation=200)
    testbed.engine.schedule_workload(
        make_du_workload(testbed.tuples_per_relation, 60, 0.05, 0.01, seed=5)
    )
    testbed.run()
    executes = counts["execute"]  # before the convergence recompute
    assert testbed.metrics.maintained_updates == 60
    assert testbed.check_consistency()
    round_trips = testbed.metrics.source_round_trips
    assert round_trips >= 60
    assert round_trips < executes <= 5 * round_trips


def _counted_du_run(monkeypatch, du_count, renames=0):
    """Run the same DU-only burst (optionally with relation renames
    mid-stream) from a cold plan cache and count what depends on the
    view version only: plan compilations and the sweep's decomposition
    (a fresh world is a cold plan cache).
    Returns ``(counts, view versions maintained under)``."""
    import repro.maintenance.decompose as decompose_module
    import repro.relational.plan as plan_module
    from repro.experiments.testbed import make_sc_workload

    counts = {"compile_plan": 0, "needed_columns": 0, "bfs_alias_order": 0}

    def counting(patch, module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        patch.setattr(module, name, counted)

    with monkeypatch.context() as patch:
        counting(patch, plan_module, "compile_plan")
        counting(patch, decompose_module, "needed_columns")
        counting(patch, decompose_module, "bfs_alias_order")
        testbed = build_testbed(PESSIMISTIC, tuples_per_relation=200)
        testbed.engine.schedule_workload(
            make_du_workload(
                testbed.tuples_per_relation, du_count, 0.05, 0.01, seed=5
            )
        )
        if renames:
            testbed.engine.schedule_workload(
                make_sc_workload(renames, 0.3, 1.0, seed=9, drop_first=False)
            )
        testbed.run()
    assert testbed.metrics.maintained_updates == du_count + renames
    assert testbed.check_consistency()
    counts["evictions"] = testbed.metrics.plan_cache_evictions
    return counts, testbed.manager.manager_for("V").view.version


#: plans one view version can need: per updated relation, one partial
#: join and one probe per other relation, plus the final assembly
PLAN_SET = RELATION_COUNT * (2 * (RELATION_COUNT - 1) + 1)


def test_du_only_burst_compiles_per_view_version_not_per_update(monkeypatch):
    """A probe ships the delta's join values as IN-lists, but its plan
    is keyed on the query's *shape*: 60 and 240 data updates compile the
    same plans — at most one set per view version — and evict none."""
    short, versions = _counted_du_run(monkeypatch, 60)
    long, _ = _counted_du_run(monkeypatch, 240)
    assert versions == 1
    assert short["compile_plan"] == long["compile_plan"]
    # + 1: the initial load runs the view query over the base tables
    assert 0 < long["compile_plan"] <= PLAN_SET + 1 == 67
    assert short["evictions"] == long["evictions"] == 0


def test_du_only_burst_decomposes_per_view_version_not_per_update(
    monkeypatch,
):
    """What the sweep derives from the view query alone — probe order,
    needed columns, partial joins, probe templates — is derived once per
    (view version, updated relation), however many updates follow."""
    short, _ = _counted_du_run(monkeypatch, 60)
    long, _ = _counted_du_run(monkeypatch, 240)
    for name in ("bfs_alias_order", "needed_columns"):
        assert short[name] == long[name]
    assert 0 < long["bfs_alias_order"] <= RELATION_COUNT
    assert 0 < long["needed_columns"] <= RELATION_COUNT * (RELATION_COUNT - 1)


def test_one_rename_adds_at_most_one_further_set(monkeypatch):
    """A schema change makes a new view version: its definition object
    is replaced wholesale, so one rename mid-stream costs at most one
    further set of plans and one further decomposition, not a cold
    start per update after it."""
    base, _ = _counted_du_run(monkeypatch, 240)
    renamed, versions = _counted_du_run(monkeypatch, 240, renames=1)
    assert versions == 2
    assert renamed["compile_plan"] <= base["compile_plan"] + PLAN_SET
    assert renamed["bfs_alias_order"] <= 2 * RELATION_COUNT
    assert renamed["needed_columns"] <= (
        2 * RELATION_COUNT * (RELATION_COUNT - 1)
    )
    assert renamed["evictions"] == 0


def test_rename_arrival_through_a_scheduler_rewrites_once(monkeypatch):
    """The shape above through a ``DynoScheduler``'s own substrate,
    where speculative rewrites are live: a rename arriving into 200 DUs
    + 10 queued renames runs view synchronization once — for the
    arrival; the ten queued rewrites read nothing that changed — and
    derives a raw footprint at most once per query object."""
    rewrites: list = []
    derived: list = []
    real_synchronize = ViewSynchronizer.synchronize_change
    real_footprint_of_query = incremental_module.footprint_of_query

    def counting_synchronize(self, view, source, change):
        rewrites.append(change)
        return real_synchronize(self, view, source, change)

    def counting_footprint_of_query(query, exclude_aliases=frozenset()):
        derived.append((id(query), exclude_aliases, query))
        return real_footprint_of_query(query, exclude_aliases)

    monkeypatch.setattr(
        ViewSynchronizer, "synchronize_change", counting_synchronize
    )
    monkeypatch.setattr(
        incremental_module, "footprint_of_query", counting_footprint_of_query
    )
    testbed = build_testbed(PESSIMISTIC, tuples_per_relation=20)
    umq = testbed.manager.umq
    substrate = testbed.scheduler.substrate
    queue = synthetic_queue(210, 10)
    for message in queue:
        umq.receive(message)
    substrate.dependencies()
    assert len(rewrites) >= 10
    del rewrites[:]
    seen = len(derived)

    arrival = RenameRelation("R1", "R1__w")
    umq.receive(UpdateMessage("src1", 1000, 1000.0, arrival))
    got = edge_set(substrate.dependencies())
    assert rewrites == [arrival]
    # The arrival's own rewritten query, and nothing already derived.
    assert len(derived) - seen == 1
    keys = [key[:2] for key in derived]
    assert len(keys) == len(set(keys))
    assert testbed.manager.manager_for("V").synchronizer.consults == 0
    assert got == edge_set(
        find_dependencies(
            umq.messages(),
            testbed.manager.maintenance_queries,
            testbed.manager.speculative_queries,
        )
    )


def _bookstore_with_replacement():
    """The bookstore stack with the MKB's ``StoreItems`` stand-in live
    at the retailer, so a relation replacement validates against it."""
    engine, stack = build_bookstore(free_cost_model())
    engine.source("retailer").create_relation(
        STOREITEMS_SCHEMA, [("Amazon", "Databases", "Gray", 50.0)]
    )
    return engine, stack, DynoScheduler(stack, PESSIMISTIC)


def test_a_rewrite_that_consulted_live_schemas_is_not_kept():
    """The case the memo must not serve.  ``DropRelation(Item)`` is
    rewritten through the MKB's relation replacement, which validates
    the stand-in's attributes against its *live* schema
    (``schema_lookup``); the next schema change drops one of them.  The
    queued drop's footprint is re-derived and agrees with the oracle —
    a rewrite kept across that arrival would still read
    ``StoreItems.Price``."""
    engine, stack, scheduler = _bookstore_with_replacement()
    [manager] = stack.view_managers()
    substrate = scheduler.substrate
    retailer = engine.source("retailer")
    price = ("retailer", "StoreItems", "Price")

    retailer.commit(DropRelation("Item"), at=0.0)
    assert price in substrate.footprint_at(0).attributes
    consults = manager.synchronizer.consults
    assert consults >= 1
    # A DU arrival changes nothing the rewrite read: served.
    retailer.commit(DataUpdate.insert(STORE_SCHEMA, [(3, "Powell")]), at=0.0)
    substrate.dependencies()
    assert manager.synchronizer.consults == consults

    retailer.commit(DropAttribute("StoreItems", "Price"), at=0.0)
    assert price not in substrate.footprint_at(0).attributes
    assert manager.synchronizer.consults > consults
    assert edge_set(substrate.dependencies()) == edge_set(
        find_dependencies(
            stack.umq.messages(),
            stack.maintenance_queries,
            manager.speculative_queries,
        )
    )


def test_a_departing_schema_change_takes_its_rewrite_along():
    """``FootprintCache.discard`` drops the remembered rewrite with the
    footprint: the entry pins its message, so one left behind would be
    a leak (never a stale answer for a reused ``id``)."""
    engine, stack, scheduler = _bookstore_with_replacement()
    cache = scheduler.substrate.cache
    engine.source("library").commit(DropAttribute("Catalog", "Review"), at=0.0)
    engine.source("library").commit(
        RenameRelation("Catalog", "Catalog__v2"), at=0.0
    )
    scheduler.substrate.dependencies()
    first, second = stack.umq.messages()
    assert set(cache._rewrites) == {id(first), id(second)}
    assert cache._rewrites[id(first)][0] is first
    stack.umq.remove_unit(stack.umq.units[1])
    assert set(cache._rewrites) == {id(first)}
    stack.umq.remove_head()
    assert not cache._rewrites


def test_mkb_rules_are_read_when_a_rewrite_is_made():
    """``MetaKnowledgeBase``'s stated contract: rules are registered
    before the first update.  A rule present then is in the rewrite; one
    registered while a change it would repair is already queued is not
    seen by that change's remembered rewrite (the rule set is not part
    of what the memo is keyed on) — only by the real synchronization
    when the unit is maintained, which still converges."""
    engine, stack, scheduler = _bookstore_with_replacement()
    [manager] = stack.view_managers()
    substrate = scheduler.substrate
    library = engine.source("library")
    digest = ("digest", "ReaderDigest")

    library.commit(DropAttribute("Catalog", "Review"), at=0.0)
    assert digest in substrate.footprint_at(0).relations  # bookstore_mkb's

    library.commit(DropAttribute("Catalog", "Category"), at=0.0)
    assert digest not in substrate.footprint_at(1).relations  # no rule: pruned
    manager.synchronizer.mkb.add_attribute_replacement(
        AttributeReplacement(
            source="library",
            relation="Catalog",
            attribute="Category",
            new_source="digest",
            new_relation="ReaderDigest",
            new_attribute="Comments",
            join_on=("Catalog", "Title"),
            join_attribute="Article",
        )
    )
    # An arrival drops only volatile entries; this rewrite read no live
    # schema, so it is served as made.
    engine.source("retailer").commit(
        DropAttribute("StoreItems", "Price"), at=0.0
    )
    assert digest not in substrate.footprint_at(1).relations

    scheduler.run()
    assert manager.mv.extent == manager.recompute_reference()
    assert manager.view.query.references_relation(*digest)
