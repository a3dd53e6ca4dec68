"""View adaptation joins once per distinct input (hypothesis + cases).

``adapt_view`` scans every relation in every round — the scans are the
in-exec detection, the query price and the ``va_install`` delay — but
runs the full-view join only in a round whose compensated tables
differ, by value, from the round before.  The loop it replaced lives on
below as the oracle: recompute in every round.  Both are driven by hand
over the same scripted world (data updates commit at the sources
between rounds; the queue reports some of them as pending, so
compensation takes those back out) and must yield the same effect
sequence — every ``SourceQuery``, every ``Delay`` kind and duration —
and return the same extent, under a strict and a clamping
``CompensationLog``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.maintenance.va as va_module
from repro.maintenance.compensation import (
    CompensationLog,
    OverCompensationError,
    compensate_answer,
)
from repro.maintenance.decompose import scan_query
from repro.maintenance.va import adapt_view
from repro.relational.delta import Delta
from repro.relational.executor import execute
from repro.relational.predicate import attr
from repro.relational.query import JoinCondition, RelationRef, SPJQuery
from repro.relational.schema import RelationSchema
from repro.relational.table import Table
from repro.relational.types import AttributeType
from repro.sim.costs import CostModel
from repro.sim.effects import Delay, SourceQuery
from repro.sim.engine import QueryAnswer
from repro.sources.messages import DataUpdate, UpdateMessage
from repro.views.definition import ViewDefinition
from repro.views.umq import MaintenanceUnit

R = RelationSchema.of("R", [("k", AttributeType.INT), "a"])
T = RelationSchema.of("T", [("k", AttributeType.INT), "x"])
SCHEMAS = {"R": R, "T": T}
SOURCES = {"R": "s1", "T": "s2"}
VIEW = ViewDefinition(
    "V",
    SPJQuery(
        relations=(RelationRef("s1", "R", "R"), RelationRef("s2", "T", "T")),
        projection=(attr("R", "a"), attr("T", "x")),
        joins=(JoinCondition(attr("R", "k"), attr("T", "k")),),
    ),
)
#: the extent size is in every ``va_install`` duration, so a stale
#: extent shows in the effect sequence as well as in the result
COST = CostModel(va_base=0.5, va_per_tuple=0.25)
BASE = {
    "R": [(1, "a"), (2, "b"), (2, "b")],
    "T": [(1, "x"), (2, "y"), (3, "z")],
}


def recompute_every_round(view, unit, umq, cost, rounds=1, log=None):
    """The displaced ``adapt_view``: one join per round, needed or not."""
    query = view.query
    extent = None
    for _ in range(max(1, rounds)):
        fetched = {}
        for alias in query.aliases:
            ref = query.relation_ref(alias)
            source_query = scan_query(query, alias)
            answer = yield SourceQuery(ref.source, source_query)
            leaked = umq.leaked(
                unit, ref.source, ref.relation, answer.answered_at
            )
            fetched[alias] = compensate_answer(
                answer.table, source_query, alias, leaked, log
            )
        extent = execute(query, fetched)
        yield Delay(
            cost.va_base + cost.va_per_tuple * len(extent), "va_install"
        )
    return extent


class World:
    """Two sources, a clock, and what commits between the rounds.

    ``gaps[i]`` lists the ``(relation, row, sign, reported)`` updates
    that commit after round ``i``'s install delay.  A *reported* update
    is queued behind the unit (``leaked`` hands it to compensation); an
    unreported one is an update compensation cannot see.
    """

    def __init__(self, gaps) -> None:
        self.tables = {name: Table(SCHEMAS[name], BASE[name]) for name in BASE}
        self.gaps = list(gaps)
        self.clock = 0.0
        self.behind: list[UpdateMessage] = []
        self.effects: list = []

    def leaked(self, _unit, source, relation, answered_at):
        return [
            message
            for message in self.behind
            if message.source == source
            and message.payload.relation == relation
            and message.committed_at <= answered_at
        ]

    def _commit_gap(self) -> None:
        for relation, row, sign, reported in (
            self.gaps.pop(0) if self.gaps else ()
        ):
            delta = Delta(SCHEMAS[relation])
            delta.add(row, sign)
            if sign < 0 and row not in self.tables[relation]:
                continue  # nothing to delete: the update never happened
            self.tables[relation].apply_delta(delta)
            self.clock += 1.0
            if reported:
                self.behind.append(
                    UpdateMessage(
                        SOURCES[relation],
                        len(self.behind) + 1,
                        self.clock,
                        DataUpdate(relation, delta),
                    )
                )

    def drive(self, process):
        """Run ``process`` to completion: ``(effects, returned)``."""
        effects = self.effects
        reply = None
        try:
            while True:
                effect = process.send(reply)
                effects.append(effect)
                if isinstance(effect, SourceQuery):
                    self.clock += 1.0
                    (alias,) = effect.query.aliases
                    relation = effect.query.relation_ref(alias).relation
                    reply = QueryAnswer(
                        execute(effect.query, {alias: self.tables[relation]}),
                        self.clock,
                    )
                else:
                    assert isinstance(effect, Delay)
                    self.clock += effect.duration
                    self._commit_gap()
                    reply = None
        except StopIteration as done:
            return effects, done.value


def run(process_factory, gaps, rounds, strict, behind=()):
    """``(effects, extent)`` — or, where a strict log refuses a round
    (an unreported delete took back a reported insert), the effects up
    to there and the refusal.  ``behind`` is queued before round 1."""
    world = World(gaps)
    world.behind.extend(behind)
    try:
        return world.drive(
            process_factory(
                VIEW,
                MaintenanceUnit([]),
                world,
                COST,
                rounds=rounds,
                log=CompensationLog(strict=strict),
            )
        )
    except OverCompensationError as refusal:
        return world.effects, str(refusal)


@pytest.fixture
def joins(monkeypatch):
    """The full-view joins ``adapt_view`` runs, through the module-level
    ``execute`` it must keep calling (the tracer rebinds that name)."""
    calls = []

    def counting(query, tables, plans=None):
        calls.append(query)
        return execute(query, tables, plans)

    monkeypatch.setattr(va_module, "execute", counting)
    return calls


rows = st.tuples(
    st.integers(min_value=1, max_value=3), st.sampled_from(["a", "b", "x"])
)
updates = st.tuples(
    st.sampled_from(["R", "T"]),
    rows,
    st.sampled_from([1, -1]),
    st.booleans(),
)


@given(
    rounds=st.integers(min_value=1, max_value=4),
    gaps=st.lists(st.lists(updates, max_size=3), max_size=4),
    strict=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_round_reuse_equals_recompute_in_every_round(rounds, gaps, strict):
    """Reported and unreported commits in any gap: same scans, same
    delays, same extent as the per-round recompute."""
    expected = run(recompute_every_round, gaps, rounds, strict)
    effects, extent = run(adapt_view, gaps, rounds, strict)
    assert effects == expected[0]
    assert extent == expected[1]
    if isinstance(extent, str):
        assert strict
        return
    scans = [effect for effect in effects if isinstance(effect, SourceQuery)]
    delays = [effect for effect in effects if isinstance(effect, Delay)]
    assert len(scans) == rounds * len(VIEW.query.aliases)
    assert len(delays) == rounds
    assert {delay.kind for delay in delays} == {"va_install"}


def test_compensated_rounds_join_once(joins):
    """The common case: everything that commits between the rounds is
    queued behind the unit, so compensation hands every round the same
    tables — four rounds of scans, one join."""
    gaps = [
        [("R", (3, "c"), 1, True), ("T", (1, "x"), -1, True)],
        [("T", (2, "w"), 1, True)],
        [("R", (1, "a"), -1, True)],
    ]
    for strict in (True, False):
        del joins[:]
        effects, extent = run(adapt_view, gaps, 4, strict)
        assert len(joins) == 1
        assert (effects, extent) == run(recompute_every_round, gaps, 4, strict)
        assert extent == execute(
            VIEW.query, {name: Table(SCHEMAS[name], BASE[name]) for name in BASE}
        )


def test_a_round_whose_input_differs_joins_again(joins):
    """An update compensation cannot see (committed, but not queued
    behind the unit) lands between rounds 1 and 2: round 2's tables
    differ, so it joins again — and rounds 3 and 4, equal to round 2,
    do not.  Reusing round 1's extent without comparing fails here: the
    returned extent and the last three delays would be round 1's."""
    gaps = [[("T", (2, "fresh"), 1, False)], [], []]
    effects, extent = run(adapt_view, gaps, 4, True)
    assert len(joins) == 2
    assert (effects, extent) == run(recompute_every_round, gaps, 4, True)
    durations = [e.duration for e in effects if isinstance(e, Delay)]
    assert durations[0] < durations[1] == durations[2] == durations[3]
    assert len(extent) == 5  # 3 base rows + (b, fresh) twice


def test_a_clamped_round_is_compared_by_value(joins):
    """The non-strict baselines clamp an over-compensated count; the
    clamped tables are equal by value from round to round, so they
    still join once."""
    # A reported insert the source never applied: its compensation
    # drives a count negative, which only a clamping log tolerates.
    ghost = Delta(R)
    ghost.add((1, "a"), 2)
    behind = [UpdateMessage("s1", 1, 0.0, DataUpdate("R", ghost))]
    effects, extent = run(adapt_view, [], 3, False, behind)
    assert len(joins) == 1
    assert (effects, extent) == run(
        recompute_every_round, [], 3, False, behind
    )
    # The clamp took R(1, a) out of every round's tables.
    assert all(row[0] != "a" for row in extent.rows())
    assert isinstance(run(adapt_view, [], 3, True, behind)[1], str)
