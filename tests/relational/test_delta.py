"""Signed-multiset deltas."""

import copy
import pickle

import pytest

from repro.recovery.codec import delta_from_json, delta_to_json
from repro.relational.delta import Delta, validated_bags, with_value_in
from repro.relational.executor import signed_parts
from repro.relational.errors import ArityError, TypeMismatchError
from repro.relational.schema import RelationSchema
from repro.relational.table import Table
from repro.relational.types import AttributeType

R = RelationSchema.of("R", ["a", "b"])
PRICED = RelationSchema.of(
    "P", [("k", AttributeType.INT), ("price", AttributeType.FLOAT)]
)


class TestConstruction:
    def test_insertion(self):
        delta = Delta.insertion(R, [("x", "y"), ("x", "y"), ("p", "q")])
        assert delta.count(("x", "y")) == 2
        assert delta.count(("p", "q")) == 1

    def test_deletion(self):
        delta = Delta.deletion(R, [("x", "y")])
        assert delta.count(("x", "y")) == -1

    def test_wrong_arity_rejected(self):
        delta = Delta(R)
        with pytest.raises(ArityError):
            delta.add(("only-one",))


class TestAccumulation:
    def test_cancellation_removes_entry(self):
        delta = Delta(R)
        delta.add(("x", "y"), 2)
        delta.add(("x", "y"), -2)
        assert delta.is_empty()
        assert len(delta) == 0

    def test_zero_count_noop(self):
        delta = Delta(R)
        delta.add(("x", "y"), 0)
        assert delta.is_empty()

    def test_merge(self):
        left = Delta.insertion(R, [("a", "b")])
        right = Delta.deletion(R, [("a", "b"), ("c", "d")])
        left.merge(right)
        assert left.count(("a", "b")) == 0
        assert left.count(("c", "d")) == -1

    def test_merge_arity_mismatch_rejected(self):
        other = Delta(RelationSchema.of("S", ["a"]))
        with pytest.raises(ArityError):
            Delta(R).merge(other)


class TestParts:
    def test_insertions_and_deletions_split(self):
        delta = Delta(R)
        delta.add(("i", "i"), 3)
        delta.add(("d", "d"), -2)
        # the kernel's sign split (tables hold positive counts only)
        parts = dict(signed_parts(delta.validated_items()))
        assert parts == {1: {("i", "i"): 3}, -1: {("d", "d"): 2}}

    def test_negated(self):
        delta = Delta(R)
        delta.add(("x", "y"), 2)
        flipped = delta.negated()
        assert flipped.count(("x", "y")) == -2
        assert delta.count(("x", "y")) == 2  # original intact

    def test_negated_roundtrip_cancels(self):
        delta = Delta.insertion(R, [("x", "y")])
        delta.merge(delta.negated())
        assert delta.is_empty()

    def test_copy_is_independent(self):
        delta = Delta.insertion(R, [("x", "y")])
        duplicate = delta.copy()
        duplicate.add(("x", "y"))
        assert delta.count(("x", "y")) == 1
        assert duplicate.count(("x", "y")) == 2


class TestInspection:
    def test_rows_repeats_by_abs_count(self):
        delta = Delta(R)
        delta.add(("x", "y"), 2)
        delta.add(("d", "d"), -1)
        rows = list(delta.rows())
        assert rows.count(("x", "y")) == 2
        assert rows.count(("d", "d")) == 1

    def test_net_size(self):
        delta = Delta(R)
        delta.add(("x", "y"), 2)
        delta.add(("d", "d"), -3)
        assert delta.net_size() == 5

    def test_equality_is_by_net_effect(self):
        left = Delta(R)
        left.add(("x", "y"), 1)
        left.add(("x", "y"), 1)
        right = Delta(R)
        right.add(("x", "y"), 2)
        assert left == right

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Delta(R))

    def test_repr_mentions_schema(self):
        assert "R" in repr(Delta(R))


class TestValidatedItems:
    """The rows typed for the delta's own schema, remembered beside the
    fields: never compared, printed, pickled or journalled."""

    def _priced(self) -> Delta:
        delta = Delta(PRICED)
        delta.add((1, 50), 2)  # an int in a FLOAT column
        delta.add((2, None), -1)  # and a NULL
        return delta

    def test_holds_what_a_table_would_store(self):
        delta = self._priced()
        items = delta.validated_items()
        assert repr(items) == "(((1, 50.0), 2), ((2, None), -1))"
        stored = Table(PRICED)
        stored.insert((1, 50), 2)
        assert repr(list(stored.items())) == repr([items[0]])
        # the raw rows are still what the delta itself holds
        assert repr(list(delta.items())) == "[((1, 50), 2), ((2, None), -1)]"
        assert delta.validated_items() is items

    def test_mutation_drops_it(self):
        delta = self._priced()
        before = delta.validated_items()
        delta.add((3, 7), 1)
        assert delta.validated_items() == before + (((3, 7.0), 1),)
        delta.merge(Delta(PRICED, {(3, 7): -1}))
        again = delta.validated_items()
        assert again == before and again is not before
        delta.add((4, 1), 0)  # adds nothing: nothing to forget
        assert delta.validated_items() is again

    def test_copy_shares_it_and_derived_deltas_start_cold(self):
        delta = self._priced()
        items = delta.validated_items()
        duplicate = delta.copy()
        assert duplicate.validated_items() is items
        duplicate.add((9, 9), 1)
        assert delta.validated_items() is items
        assert len(duplicate.validated_items()) == 3
        assert delta.negated()._validated is None
        assert delta.negated().validated_items() == (
            ((1, 50.0), -2), ((2, None), 1),
        )

    def test_equality_and_repr_do_not_see_it(self):
        warm, cold = self._priced(), self._priced()
        warm.validated_items()
        assert warm == cold
        assert repr(warm) == repr(cold)

    def test_never_shipped(self):
        warm, cold = self._priced(), self._priced()
        warm.validated_items()
        assert pickle.dumps(warm) == pickle.dumps(cold)
        for clone in (pickle.loads(pickle.dumps(warm)), copy.deepcopy(warm)):
            assert clone == warm and clone.schema == PRICED
            assert clone._validated is None
            assert clone.validated_items() == warm.validated_items()
        assert delta_to_json(warm) == delta_to_json(cold)
        assert delta_from_json(delta_to_json(warm))._validated is None

    def test_a_failing_row_is_never_half_remembered(self):
        delta = Delta(PRICED)
        delta.add((1, 5), 1)
        delta.add(("one", 5), 1)  # a string in an INT column
        for _ in range(2):
            with pytest.raises(TypeMismatchError):
                delta.validated_items()
            assert delta._validated is None
        delta.add(("one", 5), -1)
        assert delta.validated_items() == (((1, 5.0), 1),)

    def test_rows_that_coerce_together_are_summed(self):
        big = 2**53
        delta = Delta(PRICED)
        delta.add((1, big), 1)
        delta.add((1, big + 1), 2)  # float(big + 1) == float(big)
        delta.add((2, big), 1)
        delta.add((2, big + 1), -1)
        assert delta.validated_items() == (((1, float(big)), 3),)


class TestListHelpers:
    """``validated_bags`` and ``with_value_in`` read a list of deltas in
    one pass each, as the per-delta method would."""

    def test_validated_bags_follow_the_method(self):
        deltas = [Delta(PRICED, {(1, 5): 1}), Delta(PRICED), Delta(R)]
        deltas[0].validated_items()  # one remembered, one cold
        assert validated_bags(deltas) == [
            delta.validated_items() for delta in deltas
        ]
        assert validated_bags(deltas)[0] is deltas[0].validated_items()

    @pytest.mark.parametrize(
        "rows",
        [
            [[(1, 5)], [(2, 5)], [(1, 6)]],  # one kept row each
            [[(1, 5), (1, 6)], [(2, 5)], [(1, 7)]],  # two in one delta
            [[(2, 5)], [(3, 5), (1, 5)], [(1, 8), (4, 1), (1, 9)]],
        ],
    )
    def test_with_value_in_lists_each_kept_delta_once(self, rows):
        deltas = [Delta(PRICED, {row: 1 for row in bag}) for bag in rows]
        twice = [deltas[0], deltas[0], *deltas[1:], deltas[2]]
        for listed in (deltas, twice):
            expected = [
                delta
                for delta in listed
                if any(row[0] == 1 for row, _ in delta.validated_items())
            ]
            kept = with_value_in(listed, 0, frozenset({1}))
            assert [id(delta) for delta in kept] == [
                id(delta) for delta in expected
            ]

    def test_with_value_in_validates_every_delta_kept_or_not(self):
        failing = Delta(PRICED, {("one", 5): 1})
        with pytest.raises(TypeMismatchError):
            with_value_in([Delta(PRICED, {(1, 5): 1}), failing], 0, {2})
        # coerced: an int key in a FLOAT column is screened as stored
        big = 2**53
        floats = RelationSchema.of("F", [("k", AttributeType.FLOAT)])
        delta = Delta(floats, {(big + 1,): 1})
        assert with_value_in([delta], 0, frozenset({float(big)})) == [delta]
