"""Relation schemas.

A :class:`RelationSchema` is an immutable ordered list of typed attributes
plus the relation name.  Schema *changes* (rename/drop/add) return new
schema objects; the mutable state lives in :mod:`repro.relational.table`
and :mod:`repro.relational.catalog`.  Immutability matters here because
the view manager keeps snapshots of source schemas (the "outdated schema
knowledge" of the paper) that must not be affected by later source-side
changes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import (
    DuplicateAttributeError,
    SchemaError,
    UnknownAttributeError,
)
from .types import EXACT_TYPE, AttributeType, Memoised

_IDENTIFIER = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _check_identifier(name: str, what: str) -> str:
    if not _IDENTIFIER.match(name):
        raise SchemaError(f"invalid {what} name: {name!r}")
    return name


@dataclass(frozen=True)
class Attribute:
    """A named, typed column of a relation."""

    name: str
    type: AttributeType = AttributeType.STRING

    def __post_init__(self) -> None:
        _check_identifier(self.name, "attribute")

    def renamed(self, new_name: str) -> "Attribute":
        return Attribute(new_name, self.type)

    def sql(self) -> str:
        return f"{self.name} {self.type.sql_name()}"


@dataclass(frozen=True)
class RelationSchema(Memoised):
    """Immutable schema of one relation: a name and ordered attributes."""

    name: str
    attributes: tuple[Attribute, ...]

    def __hash__(self) -> int:
        # Every plan-cache lookup hashes one schema per alias; the tree
        # hash (attribute type enums included) is paid once per object.
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.name, self.attributes))

    def __post_init__(self) -> None:
        _check_identifier(self.name, "relation")
        seen: set[str] = set()
        for attribute in self.attributes:
            if attribute.name in seen:
                raise DuplicateAttributeError(
                    f"duplicate attribute {attribute.name!r} "
                    f"in relation {self.name!r}"
                )
            seen.add(attribute.name)

    @classmethod
    def of(
        cls,
        name: str,
        attributes: Iterable[Attribute | tuple[str, AttributeType] | str],
    ) -> "RelationSchema":
        """Build a schema from attributes given in any convenient form.

        Accepts :class:`Attribute` objects, ``(name, type)`` pairs, or bare
        strings (which default to STRING type).
        """
        normalized: list[Attribute] = []
        for item in attributes:
            if isinstance(item, Attribute):
                normalized.append(item)
            elif isinstance(item, str):
                normalized.append(Attribute(item))
            else:
                attr_name, attr_type = item
                normalized.append(Attribute(attr_name, attr_type))
        return cls(name, tuple(normalized))

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    @property
    def arity(self) -> int:
        return len(self.attributes)

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(attribute.name for attribute in self.attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.attributes)

    def __contains__(self, attribute_name: str) -> bool:
        return attribute_name in self._names

    @cached_property
    def _names(self) -> frozenset[str]:
        # Every admitted query asks once per attribute reference.
        return frozenset(attribute.name for attribute in self.attributes)

    @cached_property
    def exact_types(self) -> tuple[type, ...]:
        """Each column's exact Python type (``EXACT_TYPE``): a row of
        these, or of ``None``, is stored as it is given."""
        return tuple(
            EXACT_TYPE[attribute.type] for attribute in self.attributes
        )

    def index_of(self, attribute_name: str) -> int:
        """Position of the attribute, raising if absent."""
        for index, attribute in enumerate(self.attributes):
            if attribute.name == attribute_name:
                return index
        raise UnknownAttributeError(attribute_name, self.name)

    def attribute(self, attribute_name: str) -> Attribute:
        return self.attributes[self.index_of(attribute_name)]

    # ------------------------------------------------------------------
    # schema evolution (all return new schemas)
    # ------------------------------------------------------------------

    def renamed(self, new_name: str) -> "RelationSchema":
        """The same attributes under a new relation name."""
        return RelationSchema(new_name, self.attributes)

    def rename_attribute(self, old: str, new: str) -> "RelationSchema":
        index = self.index_of(old)
        attributes = list(self.attributes)
        attributes[index] = attributes[index].renamed(new)
        return RelationSchema(self.name, tuple(attributes))

    def drop_attribute(self, attribute_name: str) -> "RelationSchema":
        index = self.index_of(attribute_name)
        if self.arity == 1:
            raise SchemaError(
                f"cannot drop the last attribute of relation {self.name!r}"
            )
        attributes = self.attributes[:index] + self.attributes[index + 1 :]
        return RelationSchema(self.name, attributes)

    def add_attribute(self, attribute: Attribute) -> "RelationSchema":
        if attribute.name in self:
            raise DuplicateAttributeError(
                f"attribute {attribute.name!r} already exists "
                f"in relation {self.name!r}"
            )
        return RelationSchema(self.name, self.attributes + (attribute,))

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------

    def sql(self) -> str:
        """DDL-style rendering, e.g. ``Item(SID INTEGER, Book VARCHAR)``."""
        columns = ", ".join(attribute.sql() for attribute in self.attributes)
        return f"{self.name}({columns})"
