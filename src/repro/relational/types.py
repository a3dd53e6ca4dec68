"""Attribute types for the in-memory relational engine.

The engine is deliberately small: four scalar types cover everything the
paper's testbed needs (integer keys, floating-point prices, string titles,
boolean flags).  Each type knows how to validate and coerce Python values,
and how to produce a deterministic default used when a schema change adds
an attribute to an existing relation.
"""

from __future__ import annotations

import enum

from .errors import TypeMismatchError

#: Python value kinds the engine stores.  ``None`` is allowed for every type
#: and represents SQL NULL (used e.g. as the default for added attributes).
Value = int | float | str | bool | None


class Memoised:
    """Mixin for frozen dataclasses that remember what they derive from
    their own fields (a hash, a tuple of aliases, a query shape).

    The memos are :func:`functools.cached_property` values: they sit in
    the instance ``__dict__`` beside the fields, never among them, so
    ``==``, ``repr`` and :func:`dataclasses.replace` do not see them.
    Pickling ships the fields only — string hashes differ per
    interpreter, so a cached hash that crossed into a spawned worker
    would silently miss in every dict there.
    """

    __slots__ = ()

    def __getstate__(self) -> dict:
        state = self.__dict__
        return {name: state[name] for name in self.__dataclass_fields__}


class AttributeType(enum.Enum):
    """Scalar type of a relation attribute."""

    INT = "int"
    FLOAT = "float"
    STRING = "string"
    BOOL = "bool"

    def validate(self, value: Value) -> Value:
        """Return ``value`` if it conforms to this type, else raise.

        Integers are accepted for FLOAT attributes (and widened), matching
        the usual numeric promotion of SQL engines.  ``bool`` is *not*
        accepted for INT despite being an ``int`` subclass in Python —
        silently storing ``True`` in an integer column is a classic bug.
        """
        if value is None:
            return None
        if self is AttributeType.INT:
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeMismatchError(f"expected INT, got {value!r}")
            return value
        if self is AttributeType.FLOAT:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeMismatchError(f"expected FLOAT, got {value!r}")
            return float(value)
        if self is AttributeType.STRING:
            if not isinstance(value, str):
                raise TypeMismatchError(f"expected STRING, got {value!r}")
            return value
        if self is AttributeType.BOOL:
            if not isinstance(value, bool):
                raise TypeMismatchError(f"expected BOOL, got {value!r}")
            return value
        raise AssertionError(f"unhandled type {self}")  # pragma: no cover

    def default(self) -> Value:
        """Deterministic default used when an attribute is added."""
        return None

    def sql_name(self) -> str:
        """Render the type as it would appear in a DDL statement."""
        return {
            AttributeType.INT: "INTEGER",
            AttributeType.FLOAT: "REAL",
            AttributeType.STRING: "VARCHAR",
            AttributeType.BOOL: "BOOLEAN",
        }[self]


#: The Python type whose values :meth:`AttributeType.validate` returns
#: as they are, checked with ``type(value) is``: not a ``bool`` for INT,
#: not an ``int`` for FLOAT (it is widened).  A value of any other type
#: goes through ``validate``.
EXACT_TYPE = {
    AttributeType.INT: int,
    AttributeType.FLOAT: float,
    AttributeType.STRING: str,
    AttributeType.BOOL: bool,
}
