"""Row validation: the one way a tuple becomes a stored row."""

from __future__ import annotations

from .errors import ArityError
from .schema import RelationSchema


def validated_row(schema: RelationSchema, row: tuple) -> tuple:
    """``row`` as a table over ``schema`` stores it: the arity checked
    (:class:`~repro.relational.errors.ArityError`), every value
    validated and coerced for its attribute's type
    (:class:`~repro.relational.errors.TypeMismatchError`).

    A tuple whose every value is ``None`` or of its column's exact type
    (:attr:`RelationSchema.exact_types`) is that row already and is
    returned as it is; any other row is checked value by value."""
    types = schema.exact_types
    if type(row) is tuple and len(row) == len(types):
        for value, exact in zip(row, types):
            if type(value) is not exact and value is not None:
                break
        else:
            return row
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
