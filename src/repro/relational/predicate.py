"""Predicate AST for selections and join conditions.

Predicates are immutable trees over :class:`AttrRef` leaves.  Besides
evaluation, every node supports two introspection operations the view
manager relies on:

* ``references()`` — which attributes the predicate touches.  This is how
  dependency detection decides whether a schema change *conflicts* with
  the view (Definition 3 only draws a concurrent-dependency edge when the
  changed metadata is "included in the view query").
* ``substituted()`` — rewriting attribute references, used by view
  synchronization when relations or attributes are renamed or replaced.

``lifted()`` / ``bound()`` move a tree between its concrete form and its
*shape*: the same tree with every IN-list replaced by a positional
:class:`InParameter`.  The shape is what a compiled plan is keyed on and
compiled from (:mod:`repro.relational.plan`); comparison constants are
part of the view definition and stay in it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .errors import QueryError
from .types import Value


@dataclass(frozen=True)
class AttrRef:
    """A (possibly qualified) reference to a relation attribute.

    ``relation`` is the *alias* of a relation in the enclosing query, or
    ``None`` for an unqualified reference that the executor resolves.
    """

    relation: str | None
    name: str

    def qualified(self) -> str:
        return f"{self.relation}.{self.name}" if self.relation else self.name

    def renamed(self, name: str) -> "AttrRef":
        return AttrRef(self.relation, name)

    def __str__(self) -> str:
        return self.qualified()


Substitution = Mapping[AttrRef, AttrRef]
Binding = Callable[[AttrRef], Value]

_COMPARATORS: dict[str, Callable[[Value, Value], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class Predicate:
    """Abstract base of all predicate nodes."""

    def evaluate(self, binding: Binding) -> bool:
        """Whether the predicate is TRUE (a row passes only then)."""
        raise NotImplementedError

    def refuted(self, binding: Binding) -> bool:
        """Whether it is FALSE, not UNKNOWN, under SQL's three-valued
        logic: what its :class:`Negation` passes."""
        raise NotImplementedError

    def references(self) -> frozenset[AttrRef]:
        raise NotImplementedError

    def substituted(self, substitution: Substitution) -> "Predicate":
        raise NotImplementedError

    def sql(self, marks: Sequence[str] | None = None) -> str:
        """SQL text; ``marks[i]``, when given, is what stands for the
        value list of parameter ``i`` (a source's ``?`` placeholders)."""
        raise NotImplementedError

    def lifted(self, values: list[frozenset]) -> "Predicate":
        """This tree with every IN-list replaced by an
        :class:`InParameter`; the lists are appended to ``values`` in
        parameter order."""
        return self

    def bound(self, values: tuple[frozenset, ...]) -> "Predicate":
        """Inverse of :meth:`lifted`: parameter ``i`` becomes the
        IN-list ``values[i]``."""
        return self

    def __and__(self, other: "Predicate") -> "Predicate":
        return conjunction([self, other])


@dataclass(frozen=True)
class TruePredicate(Predicate):
    """The neutral predicate; selects everything."""

    def evaluate(self, binding: Binding) -> bool:
        return True

    def refuted(self, binding: Binding) -> bool:
        return False

    def references(self) -> frozenset[AttrRef]:
        return frozenset()

    def substituted(self, substitution: Substitution) -> Predicate:
        return self

    def sql(self, marks: Sequence[str] | None = None) -> str:
        return "TRUE"


TRUE = TruePredicate()


def sql_literal(value: Value) -> str:
    """``value`` as SQL text renders it."""
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    if value is None:
        return "NULL"
    return str(value)


@dataclass(frozen=True)
class Comparison(Predicate):
    """``attr op constant`` comparison."""

    attr: AttrRef
    op: str
    value: Value

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise QueryError(f"unknown comparison operator {self.op!r}")

    def evaluate(self, binding: Binding) -> bool:
        actual = binding(self.attr)
        if actual is None or self.value is None:
            return False  # UNKNOWN: a NULL operand (no IS-style equality)
        return _COMPARATORS[self.op](actual, self.value)

    def refuted(self, binding: Binding) -> bool:
        actual = binding(self.attr)
        if actual is None or self.value is None:
            return False
        return not _COMPARATORS[self.op](actual, self.value)

    def references(self) -> frozenset[AttrRef]:
        return frozenset({self.attr})

    def substituted(self, substitution: Substitution) -> Predicate:
        return Comparison(
            substitution.get(self.attr, self.attr), self.op, self.value
        )

    def sql(self, marks: Sequence[str] | None = None) -> str:
        return f"{self.attr.qualified()} {self.op} {sql_literal(self.value)}"


@dataclass(frozen=True)
class AttrComparison(Predicate):
    """``attr op attr`` comparison (equi-joins use op '=')."""

    left: AttrRef
    op: str
    right: AttrRef

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise QueryError(f"unknown comparison operator {self.op!r}")

    def evaluate(self, binding: Binding) -> bool:
        left = binding(self.left)
        right = binding(self.right)
        if left is None or right is None:
            return False
        return _COMPARATORS[self.op](left, right)

    def refuted(self, binding: Binding) -> bool:
        left = binding(self.left)
        right = binding(self.right)
        if left is None or right is None:
            return False
        return not _COMPARATORS[self.op](left, right)

    def references(self) -> frozenset[AttrRef]:
        return frozenset({self.left, self.right})

    def substituted(self, substitution: Substitution) -> Predicate:
        return AttrComparison(
            substitution.get(self.left, self.left),
            self.op,
            substitution.get(self.right, self.right),
        )

    def sql(self, marks: Sequence[str] | None = None) -> str:
        return f"{self.left.qualified()} {self.op} {self.right.qualified()}"


@dataclass(frozen=True)
class InPredicate(Predicate):
    """``attr IN (v1, v2, ...)`` — the workhorse of maintenance queries.

    When the view manager probes a source for tuples joining with a delta,
    it ships the delta's join values as an IN list (the "individual source
    queries" of Definition 1).
    """

    attr: AttrRef
    values: frozenset

    def evaluate(self, binding: Binding) -> bool:
        value = binding(self.attr)
        return value is not None and value in self.values

    def refuted(self, binding: Binding) -> bool:
        # UNKNOWN, not FALSE, on a NULL value or a miss of a list with NULL
        value = binding(self.attr)
        return value is not None and None not in self.values and (
            value not in self.values
        )

    def references(self) -> frozenset[AttrRef]:
        return frozenset({self.attr})

    def substituted(self, substitution: Substitution) -> Predicate:
        return InPredicate(
            substitution.get(self.attr, self.attr), self.values
        )

    def sql(self, marks: Sequence[str] | None = None) -> str:
        rendered = ", ".join(
            sql_literal(value) for value in sorted(self.values, key=repr)
        )
        return f"{self.attr.qualified()} IN ({rendered})"

    def lifted(self, values: list[frozenset]) -> Predicate:
        values.append(self.values)
        return InParameter(self.attr, len(values) - 1)


@dataclass(frozen=True)
class InParameter(Predicate):
    """``attr IN ?index`` — an :class:`InPredicate` with its value list
    lifted out, as it stands in a query shape.

    A shape is bound before it is evaluated (and is its own shape:
    lifting leaves it as it is).
    """

    attr: AttrRef
    index: int

    def evaluate(self, binding: Binding) -> bool:
        raise QueryError(f"unbound parameter in {self.sql()}")

    refuted = evaluate

    def references(self) -> frozenset[AttrRef]:
        return frozenset({self.attr})

    def sql(self, marks: Sequence[str] | None = None) -> str:
        values = f"?{self.index}" if marks is None else marks[self.index]
        return f"{self.attr.qualified()} IN ({values})"

    def bound(self, values: tuple[frozenset, ...]) -> Predicate:
        return InPredicate(self.attr, values[self.index])


@dataclass(frozen=True)
class Conjunction(Predicate):
    """AND of child predicates."""

    children: tuple[Predicate, ...]

    def evaluate(self, binding: Binding) -> bool:
        return all(child.evaluate(binding) for child in self.children)

    def refuted(self, binding: Binding) -> bool:
        return any(child.refuted(binding) for child in self.children)

    def references(self) -> frozenset[AttrRef]:
        refs: frozenset[AttrRef] = frozenset()
        for child in self.children:
            refs |= child.references()
        return refs

    def substituted(self, substitution: Substitution) -> Predicate:
        return conjunction(
            [child.substituted(substitution) for child in self.children]
        )

    def sql(self, marks: Sequence[str] | None = None) -> str:
        return " AND ".join(child.sql(marks) for child in self.children)

    def lifted(self, values: list[frozenset]) -> Predicate:
        return Conjunction(
            tuple(child.lifted(values) for child in self.children)
        )

    def bound(self, values: tuple[frozenset, ...]) -> Predicate:
        return Conjunction(
            tuple(child.bound(values) for child in self.children)
        )


@dataclass(frozen=True)
class Negation(Predicate):
    """NOT of a child predicate: TRUE where the child is FALSE, so NOT
    of UNKNOWN (a NULL operand) is UNKNOWN, as in SQL."""

    child: Predicate

    def evaluate(self, binding: Binding) -> bool:
        return self.child.refuted(binding)

    def refuted(self, binding: Binding) -> bool:
        return self.child.evaluate(binding)

    def references(self) -> frozenset[AttrRef]:
        return self.child.references()

    def substituted(self, substitution: Substitution) -> Predicate:
        return Negation(self.child.substituted(substitution))

    def sql(self, marks: Sequence[str] | None = None) -> str:
        return f"NOT ({self.child.sql(marks)})"

    def lifted(self, values: list[frozenset]) -> Predicate:
        return Negation(self.child.lifted(values))

    def bound(self, values: tuple[frozenset, ...]) -> Predicate:
        return Negation(self.child.bound(values))


def conjunction(predicates: list[Predicate]) -> Predicate:
    """AND a list of predicates, flattening and dropping TRUE."""
    flattened: list[Predicate] = []
    for predicate in predicates:
        if isinstance(predicate, TruePredicate):
            continue
        if isinstance(predicate, Conjunction):
            flattened.extend(predicate.children)
        else:
            flattened.append(predicate)
    if not flattened:
        return TRUE
    if len(flattened) == 1:
        return flattened[0]
    return Conjunction(tuple(flattened))


def attr(relation: str | None, name: str | None = None) -> AttrRef:
    """Convenience constructor: ``attr("S", "SID")`` or ``attr("SID")``."""
    if name is None:
        return AttrRef(None, relation)  # type: ignore[arg-type]
    return AttrRef(relation, name)
