"""Predicate evaluation, substitution and rendering."""

import pytest

from repro.relational.errors import QueryError
from repro.relational.predicate import (
    TRUE,
    AttrComparison,
    AttrRef,
    Comparison,
    Conjunction,
    InPredicate,
    Negation,
    TruePredicate,
    attr,
    conjunction,
)


def binding_from(values: dict):
    def binding(ref: AttrRef):
        return values[ref]

    return binding


A = attr("R", "a")
B = attr("R", "b")
C = attr("S", "c")


class TestAttrRef:
    def test_qualified(self):
        assert A.qualified() == "R.a"
        assert attr("a").qualified() == "a"

    def test_renamed(self):
        assert A.renamed("z") == attr("R", "z")

    def test_str(self):
        assert str(A) == "R.a"


class TestComparison:
    def test_operators(self):
        binding = binding_from({A: 5})
        assert Comparison(A, "=", 5).evaluate(binding)
        assert Comparison(A, "!=", 4).evaluate(binding)
        assert Comparison(A, "<", 6).evaluate(binding)
        assert Comparison(A, "<=", 5).evaluate(binding)
        assert Comparison(A, ">", 4).evaluate(binding)
        assert Comparison(A, ">=", 5).evaluate(binding)
        assert not Comparison(A, "=", 6).evaluate(binding)

    def test_unknown_operator_rejected(self):
        with pytest.raises(QueryError):
            Comparison(A, "~", 5)

    def test_null_compares_false(self):
        binding = binding_from({A: None})
        assert not Comparison(A, "=", None).evaluate(binding)
        assert not Comparison(A, "=", 5).evaluate(binding)

    def test_references(self):
        assert Comparison(A, "=", 1).references() == frozenset({A})

    def test_substituted(self):
        substituted = Comparison(A, "=", 1).substituted({A: C})
        assert substituted == Comparison(C, "=", 1)

    def test_sql_quotes_strings(self):
        assert Comparison(A, "=", "o'hara").sql() == "R.a = 'o''hara'"

    def test_sql_renders_numbers(self):
        assert Comparison(A, ">", 5).sql() == "R.a > 5"


class TestAttrComparison:
    def test_evaluate(self):
        binding = binding_from({A: 1, C: 1})
        assert AttrComparison(A, "=", C).evaluate(binding)
        assert not AttrComparison(A, "!=", C).evaluate(binding)

    def test_null_operand_false(self):
        binding = binding_from({A: None, C: 1})
        assert not AttrComparison(A, "=", C).evaluate(binding)

    def test_references_both_sides(self):
        assert AttrComparison(A, "=", C).references() == frozenset({A, C})

    def test_substituted_both_sides(self):
        substituted = AttrComparison(A, "=", C).substituted({A: B, C: B})
        assert substituted == AttrComparison(B, "=", B)

    def test_sql(self):
        assert AttrComparison(A, "=", C).sql() == "R.a = S.c"


class TestInPredicate:
    def test_evaluate(self):
        predicate = InPredicate(A, frozenset({1, 2}))
        assert predicate.evaluate(binding_from({A: 1}))
        assert not predicate.evaluate(binding_from({A: 3}))

    def test_sql_lists_values(self):
        sql = InPredicate(A, frozenset({2, 1})).sql()
        assert sql.startswith("R.a IN (")
        assert "1" in sql and "2" in sql

    def test_substituted(self):
        predicate = InPredicate(A, frozenset({1}))
        assert predicate.substituted({A: C}).attr == C


class TestCombinators:
    def test_conjunction_evaluates_all(self):
        predicate = conjunction(
            [Comparison(A, ">", 0), Comparison(A, "<", 10)]
        )
        assert predicate.evaluate(binding_from({A: 5}))
        assert not predicate.evaluate(binding_from({A: 50}))

    def test_conjunction_flattens(self):
        inner = conjunction([Comparison(A, ">", 0), Comparison(B, ">", 0)])
        outer = conjunction([inner, Comparison(C, ">", 0)])
        assert isinstance(outer, Conjunction)
        assert len(outer.children) == 3

    def test_conjunction_drops_true(self):
        predicate = conjunction([TRUE, Comparison(A, "=", 1)])
        assert predicate == Comparison(A, "=", 1)

    def test_empty_conjunction_is_true(self):
        assert conjunction([]) is TRUE
        assert conjunction([TRUE, TRUE]) is TRUE

    def test_and_operator(self):
        combined = Comparison(A, "=", 1) & Comparison(B, "=", 2)
        assert isinstance(combined, Conjunction)

    def test_negation(self):
        predicate = Negation(Comparison(A, "=", 1))
        assert not predicate.evaluate(binding_from({A: 1}))
        assert predicate.evaluate(binding_from({A: 2}))
        assert predicate.references() == frozenset({A})
        assert predicate.sql() == "NOT (R.a = 1)"

    def test_negation_substituted(self):
        negation = Negation(Comparison(A, "=", 1)).substituted({A: C})
        assert negation == Negation(Comparison(C, "=", 1))

    def test_true_predicate(self):
        assert TRUE.evaluate(binding_from({}))
        assert TRUE.references() == frozenset()
        assert TRUE.substituted({A: C}) is TRUE
        assert TRUE.sql() == "TRUE"
        assert isinstance(TRUE, TruePredicate)

    def test_conjunction_references_union(self):
        predicate = conjunction(
            [Comparison(A, "=", 1), Comparison(C, "=", 2)]
        )
        assert predicate.references() == frozenset({A, C})

    def test_conjunction_sql(self):
        predicate = conjunction(
            [Comparison(A, "=", 1), Comparison(C, "=", 2)]
        )
        assert predicate.sql() == "R.a = 1 AND S.c = 2"
