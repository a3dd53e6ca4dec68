"""The row check's displaced per-value body, kept as its specification.

``validated_row_reference`` is ``repro.relational.rows.validated_row``
as it was before the per-schema fast path: the arity checked, then
every value passed through its attribute type's ``validate``.
``tests/property/test_row_check.py`` holds the shipped check and the
bulk load (``Table(schema, rows)``) equal to it in value, in the Python
type of every column, and in exception type and message.
"""

from __future__ import annotations

from repro.relational.errors import ArityError
from repro.relational.schema import RelationSchema


def validated_row_reference(schema: RelationSchema, row) -> tuple:
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
