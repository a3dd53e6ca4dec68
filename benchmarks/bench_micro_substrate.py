"""Micro-benchmarks of the substrate hot paths.

These are classic repeated-timing benchmarks (unlike the figure benches,
which run a whole simulated experiment once): the hash-join executor,
delta application, a table's lazy index build, its kept row total, a
key-range delete's kept candidates, probe compensation, the snapshot
cache's fold, one DU's probe sweep over prepared answers, one
end-to-end DU maintenance, the detection substrate (graph build, legal
order, the class-graph order, one rename arrival, a legal reorder, a
burst of forty), a seven-round view adaptation, one of its compensated
full-relation reads, and the read front end's replay of 50 000 reads.
"""

import random
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro.maintenance.va as va_module
from repro.cache import SnapshotCache
from repro.core.correction import correct
from repro.core.incremental import IncrementalDependencyGraph
from repro.core.scheduler import DynoScheduler
from repro.core.strategies import PESSIMISTIC
from repro.experiments.testbed import full_join_query
from repro.maintenance.batch import combine_schema_changes
from repro.maintenance.compensation import compensate_answer
from repro.maintenance.decompose import probe_query, scan_query
from repro.maintenance.history import SchemaHistory
from repro.maintenance.vm import maintain_data_update
from repro.maintenance.vs import ViewSynchronizer
from repro.relational.delta import Delta
from repro.relational.executor import execute
from repro.relational.plan import PlanCache
from repro.relational.predicate import InPredicate, attr
from repro.relational.query import JoinCondition, RelationRef, SPJQuery
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.table import Table
from repro.relational.types import AttributeType
from repro.sources.messages import (
    AddAttribute,
    DataUpdate,
    DropRelation,
    RenameAttribute,
    RenameRelation,
    UpdateMessage,
)
from repro.sources.replica import VersionedEntry
from repro.sources.source import DataSource
from repro.sources.workload import DeleteRandomRow
from repro.sim.engine import QueryAnswer
from repro.sim.metrics import Metrics
from repro.sources.sqlite_source import SqliteDataSource
from repro.experiments.testbed import build_sharded_testbed, build_testbed
from repro.frontend.reads import CONSISTENCY_LEVELS, ReadWorkload
from repro.views.manager import _UMQView
from repro.views.umq import UpdateMessageQueue

# Run as a script, sys.path[0] is this directory: the read replay's and
# the detection substrate's oracles live in the repository's test
# package.
REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tests.detection_oracle import (  # noqa: E402
    detect,
    find_dependencies,
    synthetic_queue,
)
from tests.read_oracle import serve_reference  # noqa: E402

R = RelationSchema.of("R", [("k", AttributeType.INT), "a"])
T = RelationSchema.of("T", [("k", AttributeType.INT), "x"])


def _table(schema, size, seed):
    rng = random.Random(seed)
    return Table(
        schema,
        [(rng.randrange(size), f"v{i}") for i in range(size)],
    )


def test_micro_hash_join_10k(benchmark):
    tables = {"R": _table(R, 10_000, 1), "T": _table(T, 10_000, 2)}
    query = SPJQuery(
        relations=(RelationRef("s", "R", "R"), RelationRef("s", "T", "T")),
        projection=(attr("R", "a"), attr("T", "x")),
        joins=(JoinCondition(attr("R", "k"), attr("T", "k")),),
    )
    benchmark(execute, query, tables)


def test_micro_probe_scan_10k(benchmark):
    table = _table(R, 10_000, 3)
    query = SPJQuery(
        relations=(RelationRef("s", "R", "R"),),
        projection=(attr("R", "a"),),
        selection=InPredicate(attr("R", "k"), frozenset(range(50))),
    )
    benchmark(execute, query, {"R": table})


def test_micro_fresh_probes(benchmark):
    """1 000 probes of one shape, each a query nobody has executed
    before: distinct 1-3-value IN-lists over a 2 000-row table, built
    and executed as a probe sweep does once per data update.  More
    probes than the plan cache holds plans, so a cache keyed on the
    values stays cold however many rounds run."""
    table = _table(R, 2_000, 7)
    view = SPJQuery(
        relations=(RelationRef("s", "R", "R"), RelationRef("s", "T", "T")),
        projection=(attr("R", "a"), attr("T", "x")),
        joins=(JoinCondition(attr("R", "k"), attr("T", "k")),),
    )
    rng = random.Random(8)
    lists = set()
    while len(lists) < 1_000:
        lists.add(frozenset(rng.sample(range(2_000), rng.randint(1, 3))))
    plans = PlanCache(Metrics())

    def sweep():
        rows = 0
        for values in lists:
            probe = probe_query(view, "R", {"k": values})
            rows += len(execute(probe, {"R": table}, plans))
        return rows

    rows_of_key = Counter(row[0] for row in table)
    expected = sum(rows_of_key[key] for values in lists for key in values)
    assert benchmark(sweep) == expected


def test_micro_sqlite_probe(benchmark):
    """3 000 single-key probes of one shape against a 2 000-row
    relation through ``SqliteDataSource.execute`` — the spine's
    ``sqlite_parallel`` per-probe floor, outside the spine: fault gate,
    Theorem-1 admission, one prepared text, one index lookup, the answer
    adopted."""
    table = _table(R, 2_000, 7)
    source = SqliteDataSource("s")
    source.create_relation(R, table)
    view = SPJQuery(
        relations=(RelationRef("s", "R", "R"), RelationRef("s", "T", "T")),
        projection=(attr("R", "a"), attr("T", "x")),
        joins=(JoinCondition(attr("R", "k"), attr("T", "k")),),
    )
    rng = random.Random(9)
    keys = [rng.randrange(2_000) for _ in range(3_000)]

    def sweep():
        rows = 0
        for key in keys:
            probe = probe_query(view, "R", {"k": frozenset((key,))})
            rows += len(source.execute(probe))
        return rows

    rows_of_key = Counter(row[0] for row in table)
    assert benchmark(sweep) == sum(rows_of_key[key] for key in keys)
    assert len(source._statements) == 1


@pytest.mark.parametrize("distinct", [2_000, 200])
def test_micro_index_build(benchmark, distinct):
    """The index build a first probe pays on a 2 000-row table: one row
    per key (the testbed's join key: every bucket a lone row) or ten
    rows per key (every bucket a set)."""
    table = Table(R, [(i % distinct, f"v{i}") for i in range(2_000)])

    def first_probe(fresh):
        return dict(fresh.probe("k", (0, 1)))

    hits = benchmark.pedantic(
        first_probe, setup=lambda: ((table.copy(),), {}), rounds=200
    )
    assert len(hits) == 2 * 2_000 // distinct


def test_micro_delta_apply(benchmark):
    def apply_round():
        table = _table(R, 2_000, 4)
        delta = Delta(R)
        for index in range(500):
            delta.add((index, f"n{index}"), 1)
        table.apply_delta(delta)

    benchmark(apply_round)


@pytest.mark.parametrize("rows", [2_000, 20_000])
def test_micro_table_len(benchmark, rows):
    """One insert, ``len`` and delete on a table of ``rows`` rows — what
    an install's size record reads after each applied delta.  Flat in
    ``rows``: the table keeps its total."""
    table = _table(R, rows, 10)
    row = (-1, "new")

    def insert_len_delete():
        table.insert(row)
        size = len(table)
        table.delete(row)
        return size

    assert benchmark(insert_len_delete) == rows + 1


@pytest.mark.parametrize("rows", [2_000, 20_000])
def test_micro_key_range_delete(benchmark, rows):
    """One key-range delete over a source relation of ``rows`` rows with
    a hot domain of eight keys (the testbed's ``key_domain`` deletes):
    the intent materialized and committed, then its victim committed
    back.  Flat in ``rows``: the source keeps the in-range rows."""
    source = DataSource("s")
    source.create_relation(R, _table(R, rows, 11).rows())
    intent = DeleteRandomRow(random.Random(12), "R", key_range=(1, 8))

    def delete_and_restore():
        update = intent.materialize(source)
        source.commit(update)
        (victim,) = update.delta.rows()
        source.commit(DataUpdate.insert(R, [victim]))
        return victim

    assert 1 <= benchmark(delete_and_restore)[0] <= 8


#: ``miss``: a one-value IN-list no leaked or gap row matches — the
#: spine's shape (on ``du_local`` over 99 % of gap rows miss the probe)
_MISS = frozenset({-1})


@pytest.mark.parametrize("miss", [False, True], ids=["hit", "miss"])
@pytest.mark.parametrize("pending", [0, 1, 20, 200])
def test_micro_compensation(benchmark, pending, miss):
    """One probe answer compensated for ``pending`` leaked updates of
    mixed sign (every third one a delete): the spine's ``du_burst``
    compensates ~20 deep, a full-size burst hundreds.  With nothing
    leaked or nothing admitted, the answer itself comes back."""
    answer = _table(R, 1_000, 5)
    query = SPJQuery(
        relations=(RelationRef("s", "R", "R"),),
        projection=(attr("R", "k"), attr("R", "a")),
        selection=InPredicate(
            attr("R", "k"), _MISS if miss else frozenset(range(1000))
        ),
    )
    leaked = []
    for index in range(pending):
        row = (index, f"n{index}")
        if index % 3:
            answer.insert(row)
            update = DataUpdate.insert(R, [row])
        else:
            update = DataUpdate.delete(R, [row])
        leaked.append(UpdateMessage("s", index, 0.0, update))
    corrected = benchmark(compensate_answer, answer, query, "R", leaked)
    if miss or not pending:
        assert corrected is answer
    else:
        assert len(corrected) == 1_000 + len(range(0, pending, 3))


@pytest.mark.parametrize("miss", [False, True], ids=["hit", "miss"])
@pytest.mark.parametrize("gap", [1, 20, 200])
def test_micro_cache_fold(benchmark, gap, miss):
    """One cached probe answer patched forward through ``gap`` committed
    updates of its relation (every third one a delete): the spine's
    ``du_local`` folds ~25 deep, a cold key hundreds."""
    answer = _table(R, 1_000, 5)
    query = SPJQuery(
        relations=(RelationRef("s", "R", "R"),),
        projection=(attr("R", "k"), attr("R", "a")),
        selection=InPredicate(
            attr("R", "k"), _MISS if miss else frozenset(range(0, 1000, 2))
        ),
    )
    deltas = []
    for index in range(gap):
        row = (index, f"n{index}")
        if index % 3:
            deltas.append(Delta.insertion(R, [row]))
        else:
            answer.insert(row)
            deltas.append(Delta.deletion(R, [row]))
    cache = SnapshotCache(plans=PlanCache(Metrics()))
    # every other key is probed: half the gap's rows are effect rows
    folded = lambda: cache._fold(VersionedEntry(0, answer), query, deltas)
    assert benchmark(folded) == (0 if miss else len(range(0, gap, 2)))


@pytest.mark.parametrize("history", ["plain", "renamed", "crowded"])
@pytest.mark.parametrize("depth", [1, 20, 200])
def test_micro_leak_lookup(benchmark, depth, history):
    """One probe's question — which queued updates leaked into this
    answer — with ``depth`` updates queued behind the head, spread over
    six relations; ``renamed``: the probed relation was renamed after
    they committed, so every match is translated (once: the steady
    state is the memo); ``crowded``: forty renames of other relations
    were recorded first, which the committed-name lookup asked once per
    answer must not walk."""
    relations = [RelationSchema.of(f"R{i}", ["k", "a"]) for i in range(6)]
    umq = UpdateMessageQueue()
    for index in range(depth + 1):
        schema = relations[index % 6]
        update = DataUpdate.insert(schema, [(str(index), "n")])
        umq.receive(UpdateMessage("s", index, float(index), update))
    schema_history = SchemaHistory()
    probed = "R1"
    if history == "crowded":
        for index in range(40):
            schema_history.record(
                "s", RenameRelation(f"Q{index}", f"Q{index}b")
            )
    if history != "plain":
        schema_history.record("s", RenameRelation("R1", "R1b"))
        probed = "R1b"
    stack = SimpleNamespace(umq=umq, in_flight_messages=list)
    head = umq.head()
    facade = _UMQView(stack, schema_history, head, [])
    leaked = benchmark(facade.leaked, head, "s", probed, float(depth))
    assert [message.seqno for message in leaked] == list(
        range(1, depth + 1, 6)
    )
    assert {message.payload.relation for message in leaked} == {probed}


def test_micro_combine(benchmark):
    """Section 5's combination of a 40-change batch, four relations
    round-robin: a rename chain, an attribute rename chain, additions
    renamed after the fact, and a rename chain ending in a drop."""
    batch = []
    for step in range(10):
        batch += [
            RenameRelation(_versioned("R1", step), _versioned("R1", step + 1)),
            RenameAttribute(
                "R2", _versioned("A2", step), _versioned("A2", step + 1)
            ),
            AddAttribute("R3", Attribute(f"e{step // 2}"))
            if step % 2 == 0
            else RenameAttribute("R3", f"e{step // 2}", f"f{step // 2}"),
            RenameRelation(_versioned("R4", step), _versioned("R4", step + 1))
            if step < 9
            else DropRelation(_versioned("R4", step)),
        ]
    combined = benchmark(
        combine_schema_changes, [("s", change) for change in batch]
    )
    assert combined == [
        ("s", RenameRelation("R1", "R1__v11")),
        ("s", RenameAttribute("R2", "A2", "A2__v11")),
        ("s", AddAttribute("R3", Attribute("f0"))),
        ("s", AddAttribute("R3", Attribute("f1"))),
        ("s", AddAttribute("R3", Attribute("f2"))),
        ("s", AddAttribute("R3", Attribute("f3"))),
        ("s", AddAttribute("R3", Attribute("f4"))),
        ("s", DropRelation("R4")),
    ]


def _versioned(name: str, step: int) -> str:
    return name if step == 0 else f"{name}__v{step + 1}"


def test_micro_single_du_maintenance(benchmark):
    """One full DU maintenance over the 6-relation testbed view."""

    def run_one():
        testbed = build_testbed(PESSIMISTIC, tuples_per_relation=500)
        testbed.engine.schedule_workload(
            testbed.random_du_workload(1, 0.0, 1.0, seed=6)
        )
        DynoScheduler(testbed.manager, PESSIMISTIC).run()

    benchmark.pedantic(run_one, rounds=3, iterations=1)


@pytest.mark.parametrize("width", [1, 20, 200])
def test_micro_probe_sweep(benchmark, width):
    """One DU of ``width`` rows through the 6-relation testbed view's
    probe sweep: the running join, its IN-lists, probe binding,
    compensation with nothing leaked and the signed view delta.  Every
    answer is a table prepared beforehand, so neither the testbed build
    nor the sources' execution is timed: what remains is the sweep's
    per-call floor and its cost per delta row."""
    testbed = build_testbed(PESSIMISTIC, tuples_per_relation=500)
    (view_manager,) = testbed.manager.view_managers()
    view = view_manager.view
    ref = view.query.relations[0]
    sources = testbed.engine.sources
    table = sources[ref.source].catalog.table(ref.relation)
    delta = Delta.insertion(table.schema, sorted(table.rows())[:width])
    unit = SimpleNamespace(
        head_message=UpdateMessage(
            ref.source, 1, 0.0, DataUpdate(ref.relation, delta)
        )
    )
    nothing_leaked = SimpleNamespace(leaked=lambda *_args: [])

    def sweep(answer):
        process = maintain_data_update(
            view, unit, nothing_leaked, plans=testbed.engine.plans
        )
        try:
            effect = next(process)
            while True:
                effect = process.send(answer(effect))
        except StopIteration as stop:
            return stop.value

    answers = []

    def recorded(effect):
        table = sources[effect.source_name].execute(effect.query)
        answers.append(QueryAnswer(table, 0.0))
        return answers[-1]

    expected = sweep(recorded)
    assert len(answers) == len(view.query.relations) - 1
    assert not expected.is_empty()

    def replayed():
        answered = iter(answers)
        return sweep(lambda _effect: next(answered))

    assert benchmark(replayed) == expected


def test_micro_graph_build(benchmark):
    """Steady-state timing of one pre-exec detection round."""
    messages = synthetic_queue(400, 20)
    benchmark(find_dependencies, messages, full_join_query())


def test_micro_legal_order(benchmark):
    """Cycle merge + topological sort on a 400-update queue."""
    messages = synthetic_queue(400, 20)
    graph = detect(messages, full_join_query()).graph
    benchmark(graph.legal_order)


def test_micro_class_order(benchmark):
    """The same queue ordered as the live substrate orders it: over the
    class graph, no message-level edge built; groups equal the
    message-level order."""
    messages = synthetic_queue(400, 20)
    umq = UpdateMessageQueue()
    substrate = IncrementalDependencyGraph(
        umq, lambda query=full_join_query(): (query,)
    )
    for message in messages:
        umq.receive(message)
    groups = benchmark(lambda: substrate.detection().groups)
    assert groups == detect(messages, full_join_query()).groups


def test_micro_rename_arrival(benchmark):
    """One ``RenameRelation`` arrival into a 400-message queue holding
    20 renames: the live graph's rebuild fallback, which is what an
    arrival costs on rename-heavy traffic (the spine's ``sc_mixed``)."""
    view_query = full_join_query()
    prefill = synthetic_queue(400, 20)
    arrival = UpdateMessage(
        "src1", 401, 401.0, RenameRelation("R1", "R1__arrival")
    )

    def queue_of_400():
        umq = UpdateMessageQueue()
        graph = IncrementalDependencyGraph(umq, lambda: (view_query,))
        for message in prefill:
            umq.receive(message)
        return (umq, graph), {}

    def arrive(umq, graph):
        umq.receive(arrival)
        return graph.edge_count

    edges = benchmark.pedantic(arrive, setup=queue_of_400, rounds=25)
    assert edges == len(find_dependencies([*prefill, arrival], view_query))


def test_micro_legal_reorder(benchmark):
    """``replace_order`` with the order ``correct`` returns, on a
    400-message queue holding 20 renames: a legal order keeps every
    rename lineage's order, so the live graph keeps its mirror (the
    reorder a detection round with renames queued applies)."""
    view_query = full_join_query()
    prefill = synthetic_queue(400, 20)

    def queue_of_400():
        umq = UpdateMessageQueue()
        graph = IncrementalDependencyGraph(umq, lambda: (view_query,))
        for message in prefill:
            umq.receive(message)
        units = correct(umq.messages(), graph.detection()).units
        return (umq, graph, units), {}

    def reorder(umq, graph, units):
        umq.replace_order(units)
        return umq, graph

    umq, graph = benchmark.pedantic(reorder, setup=queue_of_400, rounds=25)
    assert graph.edge_count == len(
        find_dependencies(umq.messages(), view_query)
    )


def test_micro_sc_burst_arrivals(benchmark, monkeypatch):
    """40 ``RenameRelation``s arriving one by one into a 500-message
    queue, through a scheduler's own substrate (speculative rewrites
    live): the whole burst ``test_micro_rename_arrival`` times one
    arrival of — the spine's ``sc_mixed``, whose stream ends up queued
    behind view adaptation.  An arrival costs one rewrite, its own."""
    prefill = synthetic_queue(500, 0)
    names = [f"R{relation + 1}" for relation in range(6)]
    burst = []
    for index in range(40):  # six rename chains, names minted once
        relation = index % 6
        old, names[relation] = names[relation], f"R{relation + 1}__b{index}"
        burst.append(
            UpdateMessage(
                f"src{relation // 2 + 1}",
                1_000 + index,
                1_000.0 + index,
                RenameRelation(old, names[relation]),
            )
        )
    rewrites = []
    synchronize_change = ViewSynchronizer.synchronize_change

    def counted(self, view, source, change):
        rewrites.append(change)
        return synchronize_change(self, view, source, change)

    monkeypatch.setattr(ViewSynchronizer, "synchronize_change", counted)

    def queue_of_500():
        testbed = build_testbed(PESSIMISTIC, tuples_per_relation=10)
        for message in prefill:
            testbed.manager.umq.receive(message)
        del rewrites[:]
        return (testbed,), {}

    def arrive(testbed):
        for message in burst:
            testbed.manager.umq.receive(message)
        return testbed.scheduler.substrate.edge_count

    edges = benchmark.pedantic(arrive, setup=queue_of_500, rounds=5)
    assert len(rewrites) == len(burst)
    assert edges == len(
        find_dependencies([*prefill, *burst], full_join_query())
    )


def test_micro_va_rounds(benchmark, monkeypatch):
    """``adapt_view`` with ``rounds=7`` over the six 2 000-tuple
    relations of the testbed view: 42 compensated scans and — nothing
    committing in between — one 6-way join."""
    testbed = build_testbed(PESSIMISTIC, tuples_per_relation=2_000)
    engine, stack = testbed.engine, testbed.manager
    (manager,) = stack.view_managers()
    message = engine.source("src1").commit(
        RenameRelation("R1", "R1__v2"), at=0.0
    )
    adapted = manager.synchronizer.synchronize(manager.view, message)
    joins = []

    def counted(query, tables, plans):
        joins.append(query)
        return execute(query, tables, plans)

    monkeypatch.setattr(va_module, "execute", counted)

    def adapt():
        del joins[:]
        return engine.run_process(
            va_module.adapt_view(
                adapted.definition,
                stack.umq.head(),
                _UMQView(stack, manager.schema_history, stack.umq.head(), []),
                engine.cost_model,
                rounds=7,
                plans=engine.plans,
            )
        )

    extent = benchmark.pedantic(adapt, rounds=3, iterations=1)
    assert len(joins) == 1
    assert len(extent) == 2_000


@pytest.mark.parametrize("leaked", [0, 6, 60])
def test_micro_full_scan_read(benchmark, leaked):
    """One read of a view adaptation round: the full scan of a 2 000-row
    testbed relation through ``DataSource.execute``, compensated for
    ``leaked`` one-row updates (every third a delete) the answer saw.
    The scan keeps every column in place, so the kernel adopts it."""
    testbed = build_testbed(PESSIMISTIC, tuples_per_relation=2_000)
    view = full_join_query()
    alias = view.aliases[0]
    ref = view.relation_ref(alias)
    source = testbed.engine.source(ref.source)
    table = source.catalog.table(ref.relation)
    scan = scan_query(view, alias)
    plans = testbed.engine.plans  # the world's: source.execute's too
    plan = plans.plan_of(scan.prepared[0], table.schema)
    assert plan.stages[-1].projection(scan.projection)[0] is None
    clean = source.execute(scan)
    resident = sorted(table.items())
    messages = []
    for index in range(leaked):
        if index % 3:
            update = DataUpdate.insert(
                table.schema, [(10_000 + index, *resident[index][0][1:])]
            )
        else:
            update = DataUpdate.delete(table.schema, [resident[index][0]])
        messages.append(source.commit(update, at=0.0))

    def read():
        return compensate_answer(
            source.execute(scan), scan, alias, messages, plans=plans
        )

    assert benchmark(read) == clean


@pytest.mark.parametrize("shards", [1, 4])
def test_micro_read_replay(benchmark, shards):
    """50 000 reads replayed at both consistency levels over a
    ``shards``-shard run's install logs; every report must equal the
    per-read loop's (``tests/read_oracle.serve_reference``)."""
    testbed = build_sharded_testbed(
        PESSIMISTIC, shards=shards, tuples_per_relation=60
    )
    testbed.schedule_du_workload(60, start=0.05, interval=0.05)
    testbed.run()
    front_end = testbed.read_front_end()
    workload = ReadWorkload(count=50_000, seed=17)

    def replay():
        return [
            front_end.serve(workload, level) for level in CONSISTENCY_LEVELS
        ]

    assert benchmark(replay) == [
        serve_reference(front_end, workload, level)
        for level in CONSISTENCY_LEVELS
    ]
