"""Row validation: the one way a tuple becomes a stored row."""

from __future__ import annotations

from .errors import ArityError
from .schema import RelationSchema


def validated_row(schema: RelationSchema, row: tuple) -> tuple:
    """``row`` as a table over ``schema`` stores it: the arity checked
    (:class:`~repro.relational.errors.ArityError`), every value
    validated and coerced for its attribute's type
    (:class:`~repro.relational.errors.TypeMismatchError`)."""
    attributes = schema.attributes
    if len(row) != len(attributes):
        raise ArityError(
            f"row of width {len(row)} does not match relation "
            f"{schema.name!r} of arity {len(attributes)}"
        )
    return tuple(
        [
            attribute.type.validate(value)
            for attribute, value in zip(attributes, row)
        ]
    )
