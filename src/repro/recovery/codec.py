"""JSON codecs for durable maintenance state.

Everything the journal and the checkpoints persist is encoded through
these helpers into plain JSON values (lists, dicts, scalars) so the same
record survives the in-memory sinks used by tests and the append-only
JSONL / checkpoint files used for real durability.

Design notes:

* tables and deltas serialize as ``[row-as-list, count]`` pairs — bag
  semantics with signed counts round-trips exactly (Python's ``json``
  emits ``repr``-faithful floats, so float attributes survive);
* view definitions serialize as *sourced* SQL text (``source.Relation
  alias`` FROM items — the rendering the parser consumes; the AST's own
  ``sql()`` drops source qualifiers for single-engine execution) plus
  the version counter; :func:`~repro.relational.sql.parse_view` is the
  decoder, and the roundtrip is pinned by the repo's SQL-roundtrip
  property tests;
* update messages are persisted *by reference* — ``[source, seqno]`` —
  because source logs survive a warehouse crash (only the warehouse
  dies); replay re-reads the message from ``source.log[seqno - 1]``.
"""

from __future__ import annotations

from ..relational.delta import Delta
from ..relational.schema import RelationSchema
from ..relational.table import Table
from ..relational.types import AttributeType
from ..relational.sql import parse_view, sourced_sql
from ..views.definition import ViewDefinition

Ref = tuple[str, int]


# ----------------------------------------------------------------------
# message references
# ----------------------------------------------------------------------


def ref_of(message) -> list:
    """``(source, seqno)`` — enough to re-read the message from the log."""
    return [message.source, message.seqno]


def refs_of(unit) -> list[list]:
    return [ref_of(message) for message in unit]


# ----------------------------------------------------------------------
# schemas / tables / deltas
# ----------------------------------------------------------------------


def schema_to_json(schema: RelationSchema) -> dict:
    return {
        "name": schema.name,
        "attributes": [
            [attribute.name, attribute.type.value]
            for attribute in schema.attributes
        ],
    }


def schema_from_json(data: dict) -> RelationSchema:
    return RelationSchema.of(
        data["name"],
        [(name, AttributeType(kind)) for name, kind in data["attributes"]],
    )


def table_to_json(table: Table) -> dict:
    return {
        "schema": schema_to_json(table.schema),
        "rows": [[list(row), count] for row, count in table.items()],
    }


def table_from_json(data: dict) -> Table:
    table = Table(schema_from_json(data["schema"]))
    for row, count in data["rows"]:
        table.insert(tuple(row), count)
    return table


def delta_to_json(delta: Delta) -> dict:
    return {
        "schema": schema_to_json(delta.schema),
        "rows": [[list(row), count] for row, count in delta.items()],
    }


def delta_from_json(data: dict) -> Delta:
    delta = Delta(schema_from_json(data["schema"]))
    for row, count in data["rows"]:
        delta.add(tuple(row), count)
    return delta


# ----------------------------------------------------------------------
# view definitions
# ----------------------------------------------------------------------


def definition_to_json(definition: ViewDefinition) -> dict:
    return {
        "sql": (
            f"CREATE VIEW {definition.name} AS "
            f"{sourced_sql(definition.query)}"
        ),
        "version": definition.version,
    }


def definition_from_json(data: dict) -> ViewDefinition:
    name, query = parse_view(data["sql"])
    return ViewDefinition(name, query, version=data["version"])


# ----------------------------------------------------------------------
# install effects (the journal's WAL payload per view)
# ----------------------------------------------------------------------


def effect_to_json(outcome) -> dict:
    """Serialize one view's :class:`MaintenanceOutcome` effect.

    Exactly mirrors ``ViewManager.apply_outcome``'s three shapes:
    definition+extent replace, delta refresh, or no effect.  The
    schema-change lineage is *not* serialized — replay re-derives it
    from the unit's messages (still in the surviving source logs), which
    is the same pure ``combine_schema_changes`` computation the live
    install ran.
    """
    if outcome.extent is not None and outcome.definition is not None:
        return {
            "kind": "replace",
            "definition": definition_to_json(outcome.definition),
            "extent": table_to_json(outcome.extent),
        }
    if outcome.delta is not None and not outcome.delta.is_empty():
        return {"kind": "delta", "delta": delta_to_json(outcome.delta)}
    return {"kind": "noop"}
