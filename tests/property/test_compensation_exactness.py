"""Compensation exactness (hypothesis).

SWEEP's core claim: subtracting the locally-known effect of leaked
concurrent deltas from a probe answer reconstructs exactly the answer
the source would have given *before* those deltas committed.  We
generate a base table, a set of concurrent deltas and a probe, apply
the deltas, compensate the polluted answer, and require equality with
the clean answer.

``compensate_answer`` nets the leaked deltas per schema and evaluates
the probe once per sign.  The per-delta evaluation it replaced lives on
below as the oracle: one ``effect_on_answer`` per leaked delta, each
effect merged through validated ``Delta`` / ``Table`` copies.  The
fused path must agree with it as bags, in what it skips, in what it
clamps and in whether strict mode raises.

``compensate_answer`` copies the answer once and then visits only the
rows an effect touched.  The full pass over every answer row it
replaced is the second oracle, ``full_pass_compensate_answer``: the two
must agree in iteration order, in the log (notes in order) and in the
row the strict raise names.

``compensate_answer`` admits before it nets: only the deltas with a
row the probe's smallest IN-list admits are netted and evaluated, and
with no effect the answer itself comes back.  The body it replaced,
which netted every leaked delta, is the third oracle,
``netted_compensate_answer``: the two must agree exactly — rows in
order, every log field, notes in order, the strict raise — on draws
built to reach admission's edges.
"""

import re
from collections import Counter
from itertools import chain

import pytest

from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from repro.maintenance import compensation
from repro.maintenance.compensation import (
    CompensationLog,
    OverCompensationError,
    by_schema,
    compensate_answer,
    effect_on_answer,
)
from repro.relational.delta import Delta
from repro.relational.errors import RelationalError
from repro.relational.executor import BagProbe, execute
from repro.relational.predicate import (
    Comparison,
    InPredicate,
    attr,
    conjunction,
)
from repro.relational.query import RelationRef, SPJQuery
from repro.relational.schema import RelationSchema
from repro.relational.table import Table
from repro.relational.types import AttributeType
from repro.sources.messages import DataUpdate, UpdateMessage
from tests.builders import free_cost_model
from tests.leak_oracle import leaked_behind_head

SCHEMA = RelationSchema.of(
    "R", [("k", AttributeType.INT), ("v", AttributeType.STRING)]
)

rows = st.tuples(
    st.integers(min_value=0, max_value=4),
    st.sampled_from(["a", "b", "c"]),
)


def probe(values) -> SPJQuery:
    return SPJQuery(
        relations=(RelationRef("s", "R", "R"),),
        projection=(attr("R", "k"), attr("R", "v")),
        selection=InPredicate(attr("R", "k"), frozenset(values)),
    )


@st.composite
def scenario(draw):
    base_rows = draw(st.lists(rows, min_size=0, max_size=10))
    table = Table(SCHEMA, base_rows)
    deltas = []
    live = list(base_rows)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        delta = Delta(SCHEMA)
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            if live and draw(st.booleans()):
                index = draw(
                    st.integers(min_value=0, max_value=len(live) - 1)
                )
                delta.add(live.pop(index), -1)
            else:
                row = draw(rows)
                delta.add(row, 1)
                live.append(row)
        deltas.append(delta)
    probe_values = draw(
        st.frozensets(st.integers(min_value=0, max_value=4), min_size=1)
    )
    return table, deltas, probe_values


@given(scenario())
@settings(max_examples=80, deadline=None)
def test_compensation_reconstructs_clean_answer(data):
    table, deltas, probe_values = data
    query = probe(probe_values)

    clean = execute(query, {"R": table.copy()})

    polluted_table = table.copy()
    messages = []
    for seqno, delta in enumerate(deltas, start=1):
        polluted_table.apply_delta(delta)
        messages.append(
            UpdateMessage(
                "s", seqno, float(seqno), DataUpdate("R", delta.copy())
            )
        )
    polluted = execute(query, {"R": polluted_table})

    leaked = leaked_behind_head(
        messages, "s", "R", answered_at=float(len(deltas)) + 1
    )
    assert leaked == messages  # all committed before the answer
    corrected = compensate_answer(polluted, query, "R", leaked)
    assert corrected == clean


@given(scenario())
@settings(max_examples=40, deadline=None)
def test_compensation_ignores_post_answer_deltas(data):
    table, deltas, probe_values = data
    assume(deltas)
    query = probe(probe_values)

    # Only the first half of the deltas committed before the answer.
    cutoff = len(deltas) // 2
    visible_table = table.copy()
    for delta in deltas[:cutoff]:
        visible_table.apply_delta(delta)
    answer = execute(query, {"R": visible_table})

    messages = [
        UpdateMessage("s", i + 1, float(i + 1), DataUpdate("R", d.copy()))
        for i, d in enumerate(deltas)
    ]
    leaked = leaked_behind_head(
        messages, "s", "R", answered_at=float(cutoff) + 0.5
    )
    corrected = compensate_answer(answer, query, "R", leaked)
    assert corrected == execute(query, {"R": table.copy()})


# ----------------------------------------------------------------------
# the oracle: per-delta compensation, verbatim from before the fusion
# ----------------------------------------------------------------------


def _oracle_effect_of_part(
    query: SPJQuery, alias: str, part: Delta
) -> Table:
    table = Table(part.schema)
    for row, count in part.items():
        table.insert(row, count)
    return execute(query, {alias: table})


def oracle_effect_on_answer(
    query: SPJQuery, alias: str, delta: Delta
) -> Delta:
    """Signed effect of ``delta`` on the answer of probe ``query``."""
    positive, negative = Delta(delta.schema), Delta(delta.schema)
    for row, count in delta.items():
        (positive if count > 0 else negative).add(row, abs(count))
    effect: Delta | None = None
    if len(positive):
        inserted = _oracle_effect_of_part(query, alias, positive)
        effect = inserted.as_delta()
    if len(negative):
        deleted = _oracle_effect_of_part(query, alias, negative)
        if effect is None:
            effect = deleted.as_delta().negated()
        else:
            effect.merge(deleted.as_delta().negated())
    if effect is None:
        # Empty delta: produce an empty effect with the right arity by
        # executing over an empty table.
        empty = _oracle_effect_of_part(query, alias, delta)
        effect = empty.as_delta()
    return effect


def oracle_compensate_answer(
    answer: Table,
    query: SPJQuery,
    alias: str,
    leaked: list[UpdateMessage],
    log: CompensationLog | None = None,
    extra_deltas: list[Delta] | None = None,
) -> Table:
    corrected = answer.as_delta()
    deltas: list[Delta] = [
        message.payload.delta  # type: ignore[union-attr]
        for message in leaked
    ]
    if extra_deltas:
        deltas.extend(extra_deltas)
    for delta in deltas:
        if delta.is_empty():
            continue
        try:
            effect = oracle_effect_on_answer(query, alias, delta)
        except RelationalError as exc:
            if log is not None:
                log.skipped_incompatible += 1
                log.notes.append(f"skipped incompatible delta: {exc}")
            continue
        if not effect.is_empty():
            corrected.merge(effect.negated())
            if log is not None:
                log.compensated_tuples += effect.net_size()
    if log is not None:
        log.compensated_queries += 1

    table = Table(answer.schema)
    for row, count in corrected.items():
        if count < 0:
            # A negative corrected count means we subtracted an effect
            # that was not actually in the answer — possible only when
            # maintenance ordering is broken (baseline strategies).
            if log is not None and log.strict:
                raise OverCompensationError(
                    f"over-compensation on {row!r} (count {count})"
                )
            if log is not None:
                log.notes.append(
                    f"over-compensation on {row!r} (count {count})"
                )
            continue
        table.insert(row, count)
    return table


def _signed_effect(
    query: SPJQuery, alias: str, deltas: list[Delta]
) -> tuple[RelationSchema, dict]:
    """Signed effect of ``deltas``, all of one schema, on probe
    ``query``: every delta's kept rows netted, evaluated once per sign."""
    probe = BagProbe(query, alias, deltas[0].schema)
    if len(deltas) == 1:
        items = probe.keep(deltas[0].validated_items())
    else:
        net: dict = {}
        read = chain.from_iterable(delta.validated_items() for delta in deltas)
        for row, count in probe.keep(read):
            net[row] = net.get(row, 0) + count
        items = net.items()
    effect: dict = {}
    for sign, answer in probe.parts(items):
        for row, count in answer.items():
            effect[row] = effect.get(row, 0) + sign * count
    return answer.schema, effect


def netted_compensate_answer(
    answer: Table,
    query: SPJQuery,
    alias: str,
    leaked: list[UpdateMessage],
    log: CompensationLog | None = None,
    extra_deltas: list[Delta] | None = None,
) -> Table:
    """Fused compensation as it stood before it admitted deltas: every
    leaked delta is read and netted, and the answer is always copied."""
    deltas: list[Delta] = [
        message.payload.delta  # type: ignore[union-attr]
        for message in leaked
    ]
    if extra_deltas:
        deltas.extend(extra_deltas)
    corrected: Counter = Counter(answer._counts)
    touched: set = set()
    for members in by_schema([d for d in deltas if not d.is_empty()]):
        try:
            _, effect = _signed_effect(query, alias, members)
        except RelationalError as exc:
            if log is not None:
                log.skipped_incompatible += len(members)
                log.notes.extend(
                    [f"skipped incompatible delta: {exc}"] * len(members)
                )
            continue
        for row, count in effect.items():
            corrected[row] = corrected.get(row, 0) - count
        touched.update(effect)
        if log is not None:
            log.compensated_tuples += sum(map(abs, effect.values()))
    if log is not None:
        log.compensated_queries += 1

    spent = [row for row in touched if corrected[row] <= 0]
    if not any(corrected[row] for row in spent):
        for row in spent:
            del corrected[row]
        return Table.from_counts(answer.schema, corrected)
    kept: dict = {}
    for row, count in corrected.items():
        if count > 0:
            kept[row] = count
        elif count < 0:
            if log is not None and log.strict:
                raise OverCompensationError(
                    f"over-compensation on {row!r} (count {count})"
                )
            if log is not None:
                log.notes.append(
                    f"over-compensation on {row!r} (count {count})"
                )
    return Table.from_counts(answer.schema, kept)


def full_pass_compensate_answer(
    answer: Table,
    query: SPJQuery,
    alias: str,
    leaked: list[UpdateMessage],
    log: CompensationLog | None = None,
    extra_deltas: list[Delta] | None = None,
) -> Table:
    """Fused compensation as it stood before it visited only the touched
    rows: every answer row is copied, then every row is read again."""
    deltas: list[Delta] = [
        message.payload.delta  # type: ignore[union-attr]
        for message in leaked
    ]
    if extra_deltas:
        deltas.extend(extra_deltas)
    corrected: dict = dict(answer.items())
    for members in by_schema([d for d in deltas if not d.is_empty()]):
        try:
            _, effect = _signed_effect(query, alias, members)
        except RelationalError as exc:
            if log is not None:
                log.skipped_incompatible += len(members)
                log.notes.extend(
                    [f"skipped incompatible delta: {exc}"] * len(members)
                )
            continue
        for row, count in effect.items():
            corrected[row] = corrected.get(row, 0) - count
        if log is not None:
            log.compensated_tuples += sum(map(abs, effect.values()))
    if log is not None:
        log.compensated_queries += 1

    kept: dict = {}
    for row, count in corrected.items():
        if count > 0:
            kept[row] = count
        elif count < 0:
            if log is not None and log.strict:
                raise OverCompensationError(
                    f"over-compensation on {row!r} (count {count})"
                )
            if log is not None:
                log.notes.append(
                    f"over-compensation on {row!r} (count {count})"
                )
    return Table.from_counts(answer.schema, kept)


# ----------------------------------------------------------------------
# fused == oracle
# ----------------------------------------------------------------------

#: equal to SCHEMA but a distinct object, as a delta translated through
#: the schema history carries: must net into SCHEMA's bag
SCHEMA_TWIN = RelationSchema.of(
    "R", [("k", AttributeType.INT), ("v", AttributeType.STRING)]
)
#: a second schema the probe can be evaluated over: its own bag
WIDE = RelationSchema.of(
    "R",
    [
        ("k", AttributeType.INT),
        ("v", AttributeType.STRING),
        ("w", AttributeType.STRING),
    ],
)
#: schema drift: the probe projects ``v``, which is gone
NARROW = RelationSchema.of("R", [("k", AttributeType.INT)])

_SHAPES = {
    SCHEMA: lambda k, v: (k, v),
    SCHEMA_TWIN: lambda k, v: (k, v),
    WIDE: lambda k, v: (k, v, "w"),
    NARROW: lambda k, v: (k,),
}
_SCHEMAS = [SCHEMA, SCHEMA_TWIN, WIDE, NARROW]

signed_counts = st.integers(min_value=-2, max_value=3).filter(bool)


@st.composite
def leaked_sets(draw):
    """An arbitrary answer and leaked deltas over up to four schemas.

    Rows come from a 15-value domain with signed multiplicities, so a
    drawn set routinely holds an update (delete + insert in one delta),
    counts above one and the same row inserted here and deleted there;
    ``undo`` appends a delta's exact negation so whole deltas cancel
    too — in the incompatible schema as well — and a delta may be taken
    back by the other compatible schema group, so a row one group nets
    out the next adds back.  The answer is unrelated
    to the deltas, so over-compensation is common.  Up to 192 rows no
    probe admits surround the answer's drawn ones, so an answer holds up
    to 200 rows and what compensation touches sits among them.
    """
    drawn = draw(st.lists(rows, max_size=8))
    untouched = [
        (5 + index, "abc"[index % 3])
        for index in range(draw(st.integers(min_value=0, max_value=192)))
    ]
    split = draw(st.integers(min_value=0, max_value=len(untouched)))
    answer = Table(SCHEMA, untouched[:split] + drawn + untouched[split:])
    deltas: list[Delta] = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        schema = _SCHEMAS[draw(st.integers(min_value=0, max_value=3))]
        delta = Delta(schema)
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            delta.add(_SHAPES[schema](*draw(rows)), draw(signed_counts))
        deltas.append(delta)
        if schema is not NARROW and draw(st.booleans()):
            # the other compatible schema group takes it back
            back = SCHEMA if schema is WIDE else WIDE
            deltas.append(
                Delta(
                    back,
                    {
                        _SHAPES[back](*row[:2]): -count
                        for row, count in delta.items()
                    },
                )
            )
        if draw(st.booleans()):
            undo_at = draw(st.integers(min_value=0, max_value=len(deltas)))
            deltas.insert(undo_at, delta.negated())
    extras = draw(st.integers(min_value=0, max_value=min(2, len(deltas))))
    probe_values = draw(
        st.frozensets(st.integers(min_value=0, max_value=4), min_size=1)
    )
    return answer, deltas[extras:], deltas[:extras], probe_values


def _query(spec) -> SPJQuery:
    """A drawn probe: its IN-list values, or the query itself."""
    return spec if isinstance(spec, SPJQuery) else probe(spec)


def _run(compensate, data, strict):
    answer, deltas, extras, probe_values = data
    leaked = [
        UpdateMessage("s", seqno, float(seqno), DataUpdate("R", delta.copy()))
        for seqno, delta in enumerate(deltas, start=1)
    ]
    log = CompensationLog(strict=strict)
    try:
        corrected = compensate(
            answer, _query(probe_values), "R", leaked, log,
            [delta.copy() for delta in extras],
        )
    except OverCompensationError:
        corrected = None
    return corrected, log


def _clamped(log):
    return sorted(
        note for note in log.notes if note.startswith("over-compensation")
    )


def _exactly(compensate, data, strict):
    """The corrected rows in iteration order, or the strict raise's
    message (it names the row), and the log."""
    answer, deltas, extras, probe_values = data
    leaked = [
        UpdateMessage("s", seqno, float(seqno), DataUpdate("R", delta.copy()))
        for seqno, delta in enumerate(deltas, start=1)
    ]
    log = CompensationLog(strict=strict)
    try:
        corrected = compensate(
            answer, _query(probe_values), "R", leaked, log,
            [delta.copy() for delta in extras],
        )
    except OverCompensationError as exc:
        return ("raised", str(exc)), log
    return list(corrected.items()), log


@given(leaked_sets())
@settings(max_examples=300, deadline=None)
def test_fused_compensation_equals_per_delta_oracle(data):
    _check_against_oracles(data)


def _check_against_oracles(data):
    answer_before = list(data[0].items())
    for strict in (False, True):
        touched = _exactly(compensate_answer, data, strict)
        full = _exactly(full_pass_compensate_answer, data, strict)
        # same rows in the same order (or the same row raised), same log
        assert touched[0] == full[0]
        assert touched[1] == full[1]
        assert touched == _exactly(netted_compensate_answer, data, strict)
    assert list(data[0].items()) == answer_before  # the answer is shared

    fused, fused_log = _run(compensate_answer, data, strict=False)
    oracle, oracle_log = _run(oracle_compensate_answer, data, strict=False)
    assert fused == oracle
    assert fused_log.skipped_incompatible == oracle_log.skipped_incompatible
    # one note per skipped delta, not per skipped schema group
    skipped_notes = [
        note for note in fused_log.notes if note.startswith("skipped")
    ]
    assert len(skipped_notes) == fused_log.skipped_incompatible
    # the same rows clamped at the same negative counts
    assert _clamped(fused_log) == _clamped(oracle_log)
    assert fused_log.compensated_queries == oracle_log.compensated_queries
    # the log counts the net effect: never more than the per-delta sum
    assert fused_log.compensated_tuples <= oracle_log.compensated_tuples

    strict_fused, _ = _run(compensate_answer, data, strict=True)
    strict_oracle, _ = _run(oracle_compensate_answer, data, strict=True)
    assert (strict_fused is None) == (strict_oracle is None)
    assert (strict_fused is None) == bool(_clamped(oracle_log))
    if strict_fused is not None:
        assert strict_fused == strict_oracle


class _ZerosKept(Counter):
    """Mutation: the touched rows netted to 0 are never deleted."""

    def __delitem__(self, row):
        pass


class _DeletedEagerly(Counter):
    """Mutation: a row is deleted the moment it nets to 0, so a later
    schema group that adds it back appends it at the end."""

    def __setitem__(self, row, count):
        if count == 0:
            dict.pop(self, row, None)
        else:
            super().__setitem__(row, count)


@pytest.mark.parametrize("mutant", [_ZerosKept, _DeletedEagerly])
def test_the_oracles_catch_a_mutated_touched_row_pass(mutant, monkeypatch):
    monkeypatch.setattr(compensation, "Counter", mutant)
    # generation only: the first counterexample is the verdict
    check = settings(
        max_examples=300,
        phases=[Phase.generate],
        database=None,
        derandomize=True,
        deadline=None,
    )(given(leaked_sets())(_check_against_oracles))
    with pytest.raises(AssertionError):
        check()


def test_a_row_netted_to_zero_and_back_keeps_its_place():
    """Netted out by one schema group, added back by the next: the row
    stays where the answer had it, as the full pass leaves it."""
    answer = Table(SCHEMA, [(1, "a"), (1, "b"), (7, "c")])
    deltas = [
        Delta(SCHEMA, {(1, "a"): 1}),
        Delta(WIDE, {(1, "a", "w"): -1}),
    ]
    data = (answer, deltas, [], frozenset({1, 2}))
    touched = _exactly(compensate_answer, data, strict=True)
    assert touched == _exactly(full_pass_compensate_answer, data, True)
    assert touched[0] == [((1, "a"), 1), ((1, "b"), 1), ((7, "c"), 1)]
    assert touched[1].notes == []


def test_mixed_call_compensates_the_compatible_schema_and_skips_the_other():
    """One call, two schemas: the bag the probe can be evaluated over is
    compensated, every delta of the drifted one is skipped with a note
    each — also the pair that nets to nothing."""
    answer = Table(SCHEMA, [(1, "a"), (1, "leaked"), (1, "leaked")])
    gone = Delta.insertion(NARROW, [(1,)])
    deltas = [
        Delta(SCHEMA, {(1, "leaked"): 2}),
        gone,
        Delta(WIDE, {(2, "back", "w"): -1}),
        gone.negated(),
        Delta.insertion(NARROW, [(2,)]),
    ]
    data = (answer, deltas, [], frozenset({1, 2}))
    fused, log = _run(compensate_answer, data, strict=True)
    oracle, oracle_log = _run(oracle_compensate_answer, data, strict=True)
    assert fused == oracle == Table(SCHEMA, [(1, "a"), (2, "back")])
    assert log.skipped_incompatible == oracle_log.skipped_incompatible == 3
    assert len(log.notes) == 3
    assert all(re.match("skipped incompatible delta: ", n) for n in log.notes)
    assert log.compensated_tuples == 3


# ----------------------------------------------------------------------
# admission first == the netting oracle
# ----------------------------------------------------------------------

#: keys no drawn IN-list lists (those draw from 0..4)
_MISSED_KEYS = st.integers(min_value=5, max_value=9)


def _residual_probe(values) -> SPJQuery:
    """A plan that is not total: the residual names a column no schema
    has, so every row is admitted and one the IN-list passes raises."""
    return SPJQuery(
        relations=(RelationRef("s", "R", "R"),),
        projection=(attr("R", "k"), attr("R", "v")),
        selection=conjunction(
            [
                InPredicate(attr("R", "k"), frozenset(values)),
                Comparison(attr("gone"), "=", 1),
            ]
        ),
    )


@st.composite
def admission_sets(draw):
    """Leaked deltas the probe admits, misses or both, over up to four
    schemas: nothing leaked, only misses, hits among misses, a drifted
    schema beside a sound one, a miss whose row fails its own schema
    (a string key), self-join extras, and a probe whose plan is not
    total."""
    values = draw(
        st.frozensets(
            st.integers(min_value=0, max_value=4), min_size=1, max_size=3
        )
    )
    hit = st.sampled_from(sorted(values))
    letters = st.sampled_from(["a", "b", "c"])
    answer_rows = st.lists(st.tuples(hit | _MISSED_KEYS, letters), max_size=8)
    answer = Table(SCHEMA, draw(answer_rows))
    deltas: list[Delta] = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        schema = draw(st.sampled_from(_SCHEMAS))
        kind = draw(st.sampled_from(["hit", "miss", "mixed", "invalid miss"]))
        delta = Delta(schema)
        if kind == "invalid miss":
            delta.add(_SHAPES[schema]("one", "a"), draw(signed_counts))
        keys = {"hit": [hit], "mixed": [hit, _MISSED_KEYS]}.get(
            kind, [_MISSED_KEYS]
        )
        for key in keys:
            for _ in range(draw(st.integers(min_value=1, max_value=2))):
                row = _SHAPES[schema](draw(key), draw(letters))
                delta.add(row, draw(signed_counts))
        deltas.append(delta)
    extras = draw(st.integers(min_value=0, max_value=min(2, len(deltas))))
    query = _residual_probe(values) if draw(st.booleans()) else probe(values)
    return answer, deltas[extras:], deltas[:extras], query


def _nothing_admitted(query: SPJQuery, deltas: list[Delta]) -> bool:
    """No delta has a validated row ``BagProbe.keep`` keeps."""
    for delta in deltas:
        try:
            probe = BagProbe(query, "R", delta.schema)
            if probe.keep(delta.validated_items()):
                return False
        except RelationalError:
            pass
    return True


#: a leaked row the probe admits: wrongly unadmitted, it stays
_WRONG_COLUMN_WITNESS = (
    Table(SCHEMA, [(1, "a"), (1, "leaked")]),
    [Delta(SCHEMA, {(1, "leaked"): 1})],
    [],
    frozenset({1}),
)
#: a missed delta failing validation takes its admitted neighbour's
#: group with it
_UNVALIDATED_MISS_WITNESS = (
    Table(SCHEMA, [(1, "kept"), (1, "leaked")]),
    [Delta(SCHEMA, {(1, "leaked"): 1}), Delta(SCHEMA, {("one", "a"): 1})],
    [],
    frozenset({1}),
)


def _check_admission(data):
    answer, deltas, extras, spec = data
    answer_before = list(answer.items())
    for strict in (False, True):
        # rows in order (or the row raised), every log field, notes in
        # order
        assert _exactly(compensate_answer, data, strict) == _exactly(
            netted_compensate_answer, data, strict
        )
    assert list(answer.items()) == answer_before
    if _nothing_admitted(_query(spec), deltas + extras):
        corrected, _log = _run(compensate_answer, data, strict=False)
        assert corrected is answer


@given(admission_sets())
@example(_WRONG_COLUMN_WITNESS)
@example(_UNVALIDATED_MISS_WITNESS)
@settings(max_examples=300, deadline=None)
def test_admission_first_equals_the_netting_oracle(data):
    _check_admission(data)


def _admitted_on_the_wrong_column(self, bags):
    """Mutation: admission reads the column before the probed one."""
    if self._probe is None:
        return bags
    _name, position, values = self._probe
    return [
        bag
        for bag in bags
        if any(row[position - 1] in values for row, _count in bag)
    ]


def _misses_left_unvalidated(query, alias, members, plans):
    """Mutation: admission reads raw rows, and only the admitted members
    are validated."""
    probe = BagProbe(query, alias, members[0].schema, plans)
    admitted = [d for d in members if probe.admitted([tuple(d.items())])]
    bags = [delta.validated_items() for delta in admitted]
    return compensation._effect(probe, bags)[1] if bags else {}


@pytest.mark.parametrize(
    "owner, name, mutant, witness",
    [
        (BagProbe, "admitted", _admitted_on_the_wrong_column,
         _WRONG_COLUMN_WITNESS),
        (compensation, "_admitted_effect", _misses_left_unvalidated,
         _UNVALIDATED_MISS_WITNESS),
    ],
    ids=["wrong-column", "misses-unvalidated"],
)
def test_seeded_admission_mutations_fail_on_their_pinned_example(
    owner, name, mutant, witness, monkeypatch
):
    monkeypatch.setattr(owner, name, mutant)
    with pytest.raises(AssertionError):
        _check_admission(witness)


# ----------------------------------------------------------------------
# validated once: same coercion, same errors, same counts
# ----------------------------------------------------------------------

PRICED = RelationSchema.of(
    "R",
    [
        ("k", AttributeType.INT),
        ("v", AttributeType.STRING),
        ("price", AttributeType.FLOAT),
    ],
)


def _typed(bag) -> list[str]:
    """The bag's items with their value types visible (1 vs 1.0)."""
    return sorted(repr(item) for item in bag.items())


def _priced_probe() -> SPJQuery:
    return SPJQuery(
        relations=(RelationRef("s", "R", "R"),),
        projection=(attr("R", "k"), attr("R", "v"), attr("R", "price")),
        selection=InPredicate(attr("R", "k"), frozenset({1, 2, 3})),
    )


def _priced_deltas() -> list[Delta]:
    """Deltas as a source commits them: raw, an ``int`` in the FLOAT
    column and a NULL — validation is what makes them ``50.0``."""
    update = Delta(PRICED)
    update.add((2, "c", 7), -1)
    update.add((2, "c", 8), 1)
    return [
        Delta(PRICED, {(1, "a", 50): 1}),
        Delta(PRICED, {(3, "gone", None): -1}),
        update,
    ]


def test_validated_once_keeps_the_coerced_rows():
    """A delta remembers its validated rows: whatever is built from
    them — compensated answers, patched-forward effects — carries the
    coerced value, cold and warm, exactly as validating on every use."""
    answer = Table(PRICED, [(1, "a", 50.0), (1, "b", None), (2, "c", 8.0)])
    query, deltas = _priced_probe(), _priced_deltas()
    leaked = [
        UpdateMessage("s", seqno, float(seqno), DataUpdate("R", delta))
        for seqno, delta in enumerate(deltas, start=1)
    ]
    expected = _typed(oracle_compensate_answer(answer, query, "R", leaked))
    assert expected == [
        "((1, 'b', None), 1)",
        "((2, 'c', 7.0), 1)",
        "((3, 'gone', None), 1)",
    ]
    for _memo in ("cold", "warm"):
        assert _typed(compensate_answer(answer, query, "R", leaked)) == expected
        for delta in deltas:
            assert _typed(effect_on_answer(query, "R", delta)) == _typed(
                oracle_effect_on_answer(query, "R", delta)
            )
    # a one-delta call adopts the delta's own items: coerced too
    assert _typed(compensate_answer(answer, query, "R", leaked[:1])) == [
        "((1, 'b', None), 1)",
        "((2, 'c', 8.0), 1)",
    ]


def test_cache_fold_and_installed_extent_keep_the_coerced_rows():
    from repro.cache import SnapshotCache
    from repro.sources.source import DataSource
    from tests.conftest import ITEM_SCHEMA, build_bookstore

    source, cache = DataSource("s"), SnapshotCache()
    source.create_relation(PRICED, [(1, "b", None), (2, "c", 7.0)])
    query = _priced_probe()
    current = lambda: execute(query, {"R": source.catalog.table("R")})
    cache.store(source, query, current())
    for delta in _priced_deltas()[::2]:
        source.commit(DataUpdate("R", delta))
    assert _typed(cache.serve(source, query).table) == _typed(current())
    assert "((1, 'a', 50.0), 1)" in _typed(current())

    engine, stack = build_bookstore(free_cost_model())
    [manager] = stack.view_managers()
    engine.source("retailer").commit(
        DataUpdate.insert(
            ITEM_SCHEMA,
            [(2, "Databases", "Gray", 60), (1, "Compilers", "Aho", None)],
        ),
        at=0.0,
    )
    engine.run_process(stack.build_maintenance(stack.umq.head()))
    assert _typed(manager.mv.extent) == _typed(manager.recompute_reference())
    assert any("60.0" in item for item in _typed(manager.mv.extent))


def test_a_row_failing_its_own_schema_fails_every_time_and_is_skipped():
    """A failed validation is never half-remembered: the same error on
    every use, and ``compensate_answer`` skips the whole schema group,
    one count and one note per member delta, every time."""
    from repro.relational.errors import TypeMismatchError
    import pytest

    bad = Delta(SCHEMA, {(1, "a"): 1, ("one", "a"): 1})
    good = Delta(SCHEMA_TWIN, {(1, "leaked"): 1})
    query = probe(frozenset({1}))
    for _ in range(2):
        with pytest.raises(TypeMismatchError):
            effect_on_answer(query, "R", bad)
    answer = Table(SCHEMA, [(1, "kept"), (1, "leaked")])
    leaked = [
        UpdateMessage("s", seqno, 1.0, DataUpdate("R", delta))
        for seqno, delta in enumerate([good, bad], start=1)
    ]
    for _ in range(2):
        for compensate in (compensate_answer, oracle_compensate_answer):
            log = CompensationLog(strict=True)
            corrected = compensate(answer, query, "R", leaked[1:], log)
            assert corrected == answer
            assert log.skipped_incompatible == 1
            assert len(log.notes) == 1 and "expected INT" in log.notes[0]
        # netted with a sound delta of the same schema, the group goes
        # as one: nothing of it is applied
        log = CompensationLog(strict=True)
        assert compensate_answer(answer, query, "R", leaked, log) == answer
        assert log.skipped_incompatible == 2
        assert len(log.notes) == 2
        assert log.compensated_tuples == 0


@given(leaked_sets())
@settings(max_examples=100, deadline=None)
def test_log_counts_do_not_depend_on_the_memo(data):
    """``compensated_tuples`` / ``compensated_queries`` / skips with the
    deltas' memos cold equal those with every memo warm."""
    answer, deltas, extras, probe_values = data
    leaked = [
        UpdateMessage("s", seqno, float(seqno), DataUpdate("R", delta))
        for seqno, delta in enumerate(deltas, start=1)
    ]
    logs, results = [], []
    for _memo in ("cold", "warm"):
        log = CompensationLog()
        results.append(
            compensate_answer(
                answer, probe(probe_values), "R", leaked, log, list(extras)
            )
        )
        logs.append(log)
    assert results[0] == results[1]
    assert logs[0] == logs[1]
