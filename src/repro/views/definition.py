"""View definitions.

A :class:`ViewDefinition` wraps the SPJ view query with a name and a
version counter.  View synchronization produces *new versions* (the
in-memory ``w(VD)`` of Definition 1); the version number lets tests and
traces observe rewrites, and footnote 1 of the paper is honoured: the
rewritten view need not be equivalent to the original.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..relational.errors import QueryError, RelationalError
from ..relational.predicate import (
    AttrComparison,
    AttrRef,
    Comparison,
    Conjunction,
    Negation,
    Predicate,
)
from ..relational.query import SPJQuery
from ..relational.schema import Attribute, RelationSchema
from ..relational.types import AttributeType
from ..sources.source import DataSource

#: comparison operators that order their operands
_ORDERINGS = frozenset({"<", "<=", ">", ">="})
#: the attribute type of a comparison constant, by Python type
_CONSTANT_TYPES = {
    bool: AttributeType.BOOL,
    int: AttributeType.INT,
    float: AttributeType.FLOAT,
    str: AttributeType.STRING,
}


@dataclass(frozen=True)
class ViewDefinition:
    """An immutable, versioned view definition."""

    name: str
    query: SPJQuery
    version: int = 1

    def rewritten(self, query: SPJQuery) -> "ViewDefinition":
        """A new version with a rewritten query."""
        return replace(self, query=query, version=self.version + 1)

    def sql(self) -> str:
        return f"CREATE VIEW {self.name} AS {self.query.sql()}"

    # ------------------------------------------------------------------
    # schema derivation
    # ------------------------------------------------------------------

    def result_schema(self, sources: dict[str, DataSource]) -> RelationSchema:
        """The schema of the view extent, resolved against live sources.

        Output attribute names follow the kernel's convention: the bare
        attribute name, qualified with the alias on collision.  Binding
        the sources is where an ordering between a string and a number,
        which no row can ever decide, is refused (:class:`QueryError`).
        """
        self._check_orderings(self.query.selection, sources)
        names = [ref.name for ref in self.query.projection]
        attributes: list[Attribute] = []
        for ref in self.query.projection:
            attribute = self._resolve(ref, sources)
            if names.count(ref.name) > 1:
                attribute = attribute.renamed(f"{ref.relation}_{ref.name}")
            attributes.append(attribute)
        return RelationSchema(self.name, tuple(attributes))

    def _resolve(
        self, ref: AttrRef, sources: dict[str, DataSource]
    ) -> Attribute:
        relation_ref = self.query.relation_ref(ref.relation)  # type: ignore[arg-type]
        source = sources[relation_ref.source]
        return source.schema_of(relation_ref.relation).attribute(ref.name)

    def _check_orderings(
        self, predicate: Predicate, sources: dict[str, DataSource]
    ) -> None:
        if isinstance(predicate, Conjunction):
            for child in predicate.children:
                self._check_orderings(child, sources)
        elif isinstance(predicate, Negation):
            self._check_orderings(predicate.child, sources)
        elif (
            isinstance(predicate, (Comparison, AttrComparison))
            and predicate.op in _ORDERINGS
        ):
            if isinstance(predicate, Comparison):
                left = self._type_of(predicate.attr, sources)
                right = _CONSTANT_TYPES.get(type(predicate.value))
            else:
                left = self._type_of(predicate.left, sources)
                right = self._type_of(predicate.right, sources)
            if None not in (left, right) and (
                (left is AttributeType.STRING)
                != (right is AttributeType.STRING)
            ):
                raise QueryError(
                    f"{predicate.sql()} orders {left.name} against "
                    f"{right.name}: no value of one compares with the other"
                )

    def _type_of(
        self, ref: AttrRef, sources: dict[str, DataSource]
    ) -> AttributeType | None:
        """The type ``ref`` reads, or ``None`` when it does not resolve
        to one attribute (the kernel reports that itself)."""
        aliases = (
            self.query.aliases if ref.relation is None else (ref.relation,)
        )
        found = []
        for alias in aliases:
            try:
                found.append(self._resolve(AttrRef(alias, ref.name), sources))
            except (RelationalError, KeyError):
                continue
        return found[0].type if len(found) == 1 else None

    def __repr__(self) -> str:
        return f"ViewDefinition({self.name!r}, v{self.version})"

