"""Preprocessing of merged update batches (Section 5).

When dependency correction merges a cycle into one batch unit, the batch
is maintained atomically.  Preprocessing first partitions the batch per
source into a data-update subgroup and a schema-change subgroup, then

* **combines** the schema changes of each source — ``rename A to B``
  then ``rename B to C`` collapses to ``rename A to C``; a rename
  followed by a drop collapses to a drop of the original name — so the
  view definition is rewritten as few times as possible; and
* **homogenizes** the data updates — tuples committed under different
  schema versions are projected onto the attributes of the final
  (rewritten) schema so they can be merged into one delta per relation
  ("insert (3,4)", drop first attribute, "insert (5)" becomes
  "insert (4),(5)"): :meth:`SchemaHistory.translate_data_update
  <repro.maintenance.history.SchemaHistory.translate_data_update>`
  projects, :func:`~repro.maintenance.grouping.coalesce_data_updates`
  merges.

Combination falls back to the original sequence whenever a change type
it cannot compose symbolically (restructure/create) is present; applying
schema changes one by one is always correct, composition is the
optimization the paper describes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sources.messages import (
    AddAttribute,
    CreateRelation,
    DropAttribute,
    DropRelation,
    RenameAttribute,
    RenameRelation,
    RestructureRelations,
    SchemaChange,
    UpdateMessage,
)
from .history import Lineage, SchemaHistory

if TYPE_CHECKING:
    from ..views.umq import MaintenanceUnit


def combine_schema_changes(
    changes: list[tuple[str, SchemaChange]],
) -> list[tuple[str, SchemaChange]]:
    """Combine a per-commit-order list of ``(source, change)`` pairs.

    Returns an equivalent, usually shorter list expressed against the
    *original* names (the names the current view definition knows), so
    it can be applied to the definition front to back: the batch is
    recorded into a fresh :class:`SchemaHistory` and read back one
    relation lineage at a time, in first-touch order.
    """
    if any(
        isinstance(change, (RestructureRelations, CreateRelation))
        for _source, change in changes
    ):
        return list(changes)  # conservative fallback: apply sequentially
    history = SchemaHistory()
    for source, change in changes:
        history.record(source, change)
    combined: list[tuple[str, SchemaChange]] = []
    for relation in history.relations.lineages:
        minimal = _minimal_changes(relation)
        if minimal is None:
            return list(changes)  # swap detected: emit uncombined
        combined += [(relation.source, change) for change in minimal]
    return combined


def _minimal_changes(relation: Lineage) -> list[SchemaChange] | None:
    """One relation's lineage as the fewest changes that reproduce it,
    addressed by its original name; None for a rename swap.

    The order makes the list applicable step by step: drops whose name
    is some rename's *target* (the slot must be vacated first), the
    attribute renames, the additions (before the remaining drops, so a
    relation whose original attributes all go away is never transiently
    empty), the remaining drops, the relation rename last.  A swap
    (a->b together with b->a) cannot be expressed without temporaries.
    """
    original = relation.names[0]
    if relation.ended is not None:
        return [DropRelation(original, relation.ended.dropped_extent)]
    lineages = relation.attributes.lineages
    renames = {
        attribute.names[0]: attribute.name
        for attribute in lineages
        if attribute.added is None
        and attribute.name not in (None, attribute.names[0])
    }
    if any(target in renames for target in renames.values()):
        return None
    drops = [
        attribute.names[0]
        for attribute in lineages
        if attribute.added is None and attribute.name is None
    ]
    targets = set(renames.values())
    minimal: list[SchemaChange] = [
        DropAttribute(original, name) for name in drops if name in targets
    ]
    minimal += [
        RenameAttribute(original, old, new) for old, new in renames.items()
    ]
    minimal += [
        AddAttribute(
            original,
            attribute.added.attribute.renamed(attribute.name),
            attribute.added.default,
        )
        for attribute in lineages
        if attribute.added is not None and attribute.name is not None
    ]
    minimal += [
        DropAttribute(original, name) for name in drops if name not in targets
    ]
    if relation.name != original:
        minimal.append(RenameRelation(original, relation.name))
    return minimal


def schema_changes_of(unit: MaintenanceUnit) -> list[tuple[str, SchemaChange]]:
    """The batch's schema changes in commit order, with their sources."""
    return [
        (message.source, message.payload)
        for message in unit.messages
        if isinstance(message.payload, SchemaChange)
    ]


def data_updates_of(unit: MaintenanceUnit) -> list[UpdateMessage]:
    return [
        message for message in unit.messages if message.is_data_update
    ]
