"""Local compensation: removing leaked concurrent effects from answers."""

import pytest

from repro.maintenance.compensation import (
    CompensationLog,
    compensate_answer,
    effect_on_answer,
)
from repro.relational.delta import Delta
from repro.relational.predicate import Comparison, InPredicate, attr, conjunction
from repro.relational.query import RelationRef, SPJQuery
from repro.relational.schema import RelationSchema
from repro.relational.table import Table
from repro.sources.messages import (
    DataUpdate,
    DropAttribute,
    UpdateMessage,
)
from tests.bag_oracle import counted_kernel
from tests.leak_oracle import leaked_behind_head

R = RelationSchema.of("R", ["k", "v"])


def probe(values=("1", "2")) -> SPJQuery:
    return SPJQuery(
        relations=(RelationRef("s", "R", "R"),),
        projection=(attr("R", "k"), attr("R", "v")),
        selection=InPredicate(attr("R", "k"), frozenset(values)),
    )


class TestEffectOnAnswer:
    def test_insert_effect(self):
        delta = Delta.insertion(R, [("1", "a")])
        effect = effect_on_answer(probe(), "R", delta)
        assert effect.count(("1", "a")) == 1

    def test_delete_effect_is_negative(self):
        delta = Delta.deletion(R, [("1", "a")])
        effect = effect_on_answer(probe(), "R", delta)
        assert effect.count(("1", "a")) == -1

    def test_filtered_by_probe(self):
        delta = Delta.insertion(R, [("9", "out-of-probe")])
        effect = effect_on_answer(probe(), "R", delta)
        assert effect.is_empty()

    def test_mixed_signs(self):
        delta = Delta(R)
        delta.add(("1", "a"), 1)
        delta.add(("2", "b"), -1)
        effect = effect_on_answer(probe(), "R", delta)
        assert effect.count(("1", "a")) == 1
        assert effect.count(("2", "b")) == -1

    def test_empty_delta_empty_effect(self):
        effect = effect_on_answer(probe(), "R", Delta(R))
        assert effect.is_empty()

    def test_effect_respects_selection(self):
        query = SPJQuery(
            relations=(RelationRef("s", "R", "R"),),
            projection=(attr("R", "k"),),
            selection=conjunction(
                [
                    InPredicate(attr("R", "k"), frozenset({"1"})),
                    Comparison(attr("R", "v"), "=", "keep"),
                ]
            ),
        )
        delta = Delta.insertion(R, [("1", "keep"), ("1", "drop")])
        effect = effect_on_answer(query, "R", delta)
        assert effect.count(("1",)) == 1


def message(
    seqno: int, committed_at: float, payload
) -> UpdateMessage:
    return UpdateMessage("s", seqno, committed_at, payload)


class TestPendingSelection:
    def test_filters_by_relation_source_and_time(self):
        du_r = message(1, 1.0, DataUpdate.insert(R, [("1", "a")]))
        du_late = message(2, 5.0, DataUpdate.insert(R, [("2", "b")]))
        du_other = UpdateMessage(
            "other", 3, 1.0, DataUpdate.insert(R, [("1", "a")])
        )
        du_elsewhere = message(
            5, 1.0, DataUpdate.insert(R.renamed("T"), [("1", "a")])
        )
        sc = message(4, 1.0, DropAttribute("R", "v"))
        behind = [du_r, du_late, du_other, du_elsewhere, sc]
        leaked = leaked_behind_head(behind, "s", "R", answered_at=2.0)
        assert leaked == [du_r]

    def test_boundary_inclusive(self):
        du = message(1, 2.0, DataUpdate.insert(R, [("1", "a")]))
        assert leaked_behind_head([du], "s", "R", 2.0) == [du]
        assert leaked_behind_head([du], "s", "R", 2.0 - 1e-6) == []


class TestCompensateAnswer:
    def test_removes_leaked_insert(self):
        answer = Table(R, [("1", "a"), ("1", "leaked")])
        leaked = [message(1, 0.5, DataUpdate.insert(R, [("1", "leaked")]))]
        corrected = compensate_answer(answer, probe(), "R", leaked)
        assert ("1", "leaked") not in corrected
        assert ("1", "a") in corrected

    def test_restores_leaked_delete(self):
        answer = Table(R, [("1", "a")])  # ("2","gone") already deleted
        leaked = [message(1, 0.5, DataUpdate.delete(R, [("2", "gone")]))]
        corrected = compensate_answer(answer, probe(), "R", leaked)
        assert ("2", "gone") in corrected

    def test_extra_deltas_compensated(self):
        answer = Table(R, [("1", "self")])
        own = Delta.insertion(R, [("1", "self")])
        corrected = compensate_answer(
            answer, probe(), "R", [], extra_deltas=[own]
        )
        assert len(corrected) == 0

    def test_over_compensation_clamped_and_logged(self):
        # Subtracting an insert that is NOT in the answer would go
        # negative; baseline strategies can cause this.
        answer = Table(R)
        leaked = [message(1, 0.5, DataUpdate.insert(R, [("1", "ghost")]))]
        log = CompensationLog()
        corrected = compensate_answer(answer, probe(), "R", leaked, log)
        assert len(corrected) == 0
        assert any("over-compensation" in note for note in log.notes)

    def test_strict_log_raises_on_over_compensation(self):
        """Dyno-corrected runs arm strict mode: an over-compensation
        there means maintenance itself is wrong, so it must surface as
        an error instead of being clamped into silence."""
        import pytest

        from repro.maintenance.compensation import OverCompensationError

        answer = Table(R)
        leaked = [message(1, 0.5, DataUpdate.insert(R, [("1", "ghost")]))]
        log = CompensationLog(strict=True)
        with pytest.raises(OverCompensationError):
            compensate_answer(answer, probe(), "R", leaked, log)

    def test_baseline_strategies_still_clamp(self):
        """NAIVE/BLIND_MERGE schedulers leave the log non-strict: the
        broken-order anomalies they tolerate legitimately produce
        negative counts, which must clamp (and be noted), not raise."""
        from repro.core.scheduler import DynoScheduler
        from repro.core.strategies import (
            BLIND_MERGE,
            NAIVE,
            OPTIMISTIC,
            PESSIMISTIC,
        )
        from repro.experiments.testbed import build_testbed

        for strategy, strict in (
            (NAIVE, False),
            (BLIND_MERGE, False),
            (PESSIMISTIC, True),
            (OPTIMISTIC, True),
        ):
            testbed = build_testbed(strategy, tuples_per_relation=10)
            log = testbed.manager.manager_for("V").compensation_log
            assert log.strict is strict, strategy.name
        # And a non-strict log clamps exactly as before.
        answer = Table(R)
        leaked = [message(1, 0.5, DataUpdate.insert(R, [("1", "ghost")]))]
        log = CompensationLog()
        corrected = compensate_answer(answer, probe(), "R", leaked, log)
        assert len(corrected) == 0
        assert any("over-compensation" in note for note in log.notes)

    def test_incompatible_delta_skipped_and_logged(self):
        answer = Table(R, [("1", "a")])
        narrow = RelationSchema.of("R", ["k"])  # missing attribute v
        leaked = [message(1, 0.5, DataUpdate.insert(narrow, [("1",)]))]
        log = CompensationLog()
        corrected = compensate_answer(answer, probe(), "R", leaked, log)
        assert ("1", "a") in corrected
        assert log.skipped_incompatible == 1

    def test_log_counts(self):
        answer = Table(R, [("1", "x")])
        leaked = [message(1, 0.5, DataUpdate.insert(R, [("1", "x")]))]
        log = CompensationLog()
        compensate_answer(answer, probe(), "R", leaked, log)
        assert log.compensated_queries == 1
        assert log.compensated_tuples == 1

    def test_input_answer_unmodified(self):
        answer = Table(R, [("1", "x")])
        leaked = [message(1, 0.5, DataUpdate.insert(R, [("1", "x")]))]
        compensate_answer(answer, probe(), "R", leaked)
        assert ("1", "x") in answer


class TestFusedEvaluation:
    """The probe is evaluated at most once per sign of each schema's net
    bag, however many deltas leaked — and not at all for a bag none of
    whose rows the probe's IN-list admits."""

    WIDE = RelationSchema.of("R", ["k", "v", "w"])

    @pytest.mark.parametrize("pending", [1, 20, 200])
    def test_executes_bounded_by_schemas_not_by_pending(self, pending):
        # Mixed signs over two schemas; R's twin is an equal but
        # distinct schema object and must share R's bag.
        twin = RelationSchema.of("R", ["k", "v"])
        leaked, expected = [], Table(R, [("1", "kept")])
        answer = expected.copy()
        for index in range(pending):
            schema = (R, self.WIDE, twin)[index % 3]
            row = ("1", f"v{index}") + ("w",) * (schema.arity - 2)
            if index % 2:
                # leaked delete: absent from the answer, restored
                update = DataUpdate.delete(schema, [row])
                expected.insert(row[:2])
            else:
                # leaked insert: present in the answer, removed
                update = DataUpdate.insert(schema, [row])
                answer.insert(row[:2])
            leaked.append(message(index, 0.5, update))
        # leaked rows the probe's IN-list does not admit cost nothing
        for index, schema in enumerate((R, self.WIDE, twin)):
            row = ("9", f"cold{index}") + ("w",) * (schema.arity - 2)
            leaked.append(message(index, 0.5, DataUpdate.insert(schema, [row])))
        schemas = {m.payload.delta.schema for m in leaked}
        assert len(schemas) == 2

        log = CompensationLog(strict=True)
        with counted_kernel() as calls:
            corrected = compensate_answer(answer, probe(), "R", leaked, log)
        assert corrected == expected
        hot = {m.payload.delta.schema for m in leaked[:pending]}
        assert 1 <= len(calls) <= 2 * len(hot)
        assert log.compensated_tuples == pending

    def test_a_bag_with_no_admitted_row_costs_no_execute(self):
        """One pass over the leaked rows and no kernel execute: the
        answer comes back as it was, the call still counted."""
        answer = Table(R, [("1", "a")])
        leaked = [
            message(1, 0.5, DataUpdate.insert(R, [("7", "x")])),
            message(2, 0.6, DataUpdate.delete(self.WIDE, [("8", "y", "z")])),
        ]
        log = CompensationLog(strict=True)
        with counted_kernel() as calls:
            corrected = compensate_answer(answer, probe(), "R", leaked, log)
        assert (corrected, calls) == (answer, [])
        assert (log.compensated_tuples, log.compensated_queries) == (0, 1)

    def test_cancelling_deltas_never_reach_the_kernel_as_rows(self):
        """Insert-then-delete of one row nets to nothing: the answer is
        returned as it is and the log counts no compensated tuple."""
        answer = Table(R, [("1", "a")])
        leaked = [
            message(1, 0.5, DataUpdate.insert(R, [("1", "x")])),
            message(2, 0.6, DataUpdate.delete(R, [("1", "x")])),
        ]
        log = CompensationLog(strict=True)
        corrected = compensate_answer(answer, probe(), "R", leaked, log)
        assert corrected == answer
        assert log.compensated_tuples == 0
        assert log.compensated_queries == 1

    def test_failing_group_applies_neither_sign(self):
        """A bag whose second sign cannot be evaluated folds nothing of
        its first sign either, and skips every member delta."""
        answer = Table(R, [("1", "a"), ("1", "leaked")])
        leaked = [
            message(1, 0.5, DataUpdate.insert(R, [("1", "leaked")])),
            message(2, 0.6, DataUpdate.delete(R, [("2", "gone")])),
        ]
        log = CompensationLog()
        with counted_kernel(fail_at=2) as calls:
            corrected = compensate_answer(answer, probe(), "R", leaked, log)
        assert len(calls) == 2
        assert corrected == answer
        assert log.skipped_incompatible == 2
        assert len(log.notes) == 2
        assert log.compensated_tuples == 0
