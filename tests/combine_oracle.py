"""The symbolic combination loop, kept as the specification of the
history-backed one.

Until Section 5's combination read the schema history, it simulated the
batch in a tracker of its own: one ``_RelationState`` per relation,
found by its current name among the live ones, holding an
original -> current attribute map with tombstones and the batch's
additions.  That loop is verbatim below;
``repro.maintenance.batch.combine_schema_changes`` is held equal to it
(the same list, order included) by
``tests/property/test_combine_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sources.messages import (
    AddAttribute,
    CreateRelation,
    DropAttribute,
    DropRelation,
    RenameAttribute,
    RenameRelation,
    RestructureRelations,
    SchemaChange,
)


@dataclass
class _RelationState:
    """Symbolic evolution of one relation during combination."""

    original_name: str
    current_name: str
    #: original attribute name -> current name (dropped ones removed)
    attr_names: dict[str, str]
    dropped: bool = False
    dropped_message: DropRelation | None = None
    new_attributes: list[AddAttribute] = field(default_factory=list)


def combined_by_simulation(
    changes: list[tuple[str, SchemaChange]],
) -> list[tuple[str, SchemaChange]]:
    """Combine a per-commit-order list of ``(source, change)`` pairs."""
    if any(
        isinstance(change, (RestructureRelations, CreateRelation))
        for _source, change in changes
    ):
        return list(changes)  # conservative fallback: apply sequentially

    # Simulate the schema evolution per (source, relation).
    states: list[tuple[str, _RelationState]] = []

    def state_for(source: str, name: str) -> _RelationState:
        for owner, state in states:
            if (
                owner == source
                and state.current_name == name
                and not state.dropped
            ):
                return state
        state = _RelationState(name, name, {})
        states.append((source, state))
        return state

    def attr_key(state: _RelationState, current: str) -> str | None:
        for original, now in state.attr_names.items():
            if now == current:
                return original
        return None

    for source, change in changes:
        if isinstance(change, RenameRelation):
            state = state_for(source, change.old)
            state.current_name = change.new
        elif isinstance(change, RenameAttribute):
            state = state_for(source, change.relation)
            # Renaming an attribute ADDED earlier in the batch folds
            # into the addition itself (the attribute has no original
            # name to rename against).
            for index, added in enumerate(state.new_attributes):
                if added.attribute.name == change.old:
                    state.new_attributes[index] = AddAttribute(
                        added.relation,
                        added.attribute.renamed(change.new),
                        added.default,
                    )
                    break
            else:
                original = attr_key(state, change.old) or change.old
                state.attr_names[original] = change.new
        elif isinstance(change, DropAttribute):
            state = state_for(source, change.relation)
            # Dropping an attribute ADDED earlier in the batch cancels
            # the addition entirely.
            for index, added in enumerate(state.new_attributes):
                if added.attribute.name == change.attribute:
                    del state.new_attributes[index]
                    break
            else:
                original = (
                    attr_key(state, change.attribute) or change.attribute
                )
                state.attr_names[original] = ""  # tombstone
        elif isinstance(change, AddAttribute):
            state = state_for(source, change.relation)
            state.new_attributes.append(change)
        elif isinstance(change, DropRelation):
            state = state_for(source, change.relation)
            state.dropped = True
            state.dropped_message = change
        else:  # pragma: no cover - excluded by the fallback above
            raise AssertionError(f"uncombinable change {change!r}")

    # Emit the minimal equivalent sequence per relation.  Ordering is
    # chosen so the emitted sequence is applicable step by step:
    #
    # 1. drops whose name is some rename's *target* (the target slot
    #    must be vacated before the rename lands);
    # 2. renames;
    # 3. additions (before the remaining drops, so a relation whose
    #    original attributes all go away is never transiently empty);
    # 4. the remaining drops;
    # 5. the relation-level rename last.
    #
    # Rename *swaps* (a→b together with b→a) cannot be expressed without
    # temporaries; when one is detected the whole batch falls back to
    # the original (always-applicable) sequence.
    combined: list[tuple[str, SchemaChange]] = []
    for source, state in states:
        if state.dropped:
            message = state.dropped_message
            assert message is not None
            combined.append(
                (source, DropRelation(state.original_name,
                                      message.dropped_extent))
            )
            continue
        renames = {
            original: now
            for original, now in state.attr_names.items()
            if now != "" and now != original
        }
        drops = [
            original
            for original, now in state.attr_names.items()
            if now == ""
        ]
        sources_of_renames = set(renames)
        if any(target in sources_of_renames for target in renames.values()):
            return list(changes)  # swap detected: emit uncombined

        rename_targets = set(renames.values())
        early_drops = [name for name in drops if name in rename_targets]
        late_drops = [name for name in drops if name not in rename_targets]

        for name in early_drops:
            combined.append(
                (source, DropAttribute(state.original_name, name))
            )
        for original, now in renames.items():
            combined.append(
                (
                    source,
                    RenameAttribute(state.original_name, original, now),
                )
            )
        for added in state.new_attributes:
            combined.append(
                (
                    source,
                    AddAttribute(
                        state.original_name, added.attribute, added.default
                    ),
                )
            )
        for name in late_drops:
            combined.append(
                (source, DropAttribute(state.original_name, name))
            )
        if state.current_name != state.original_name:
            combined.append(
                (
                    source,
                    RenameRelation(state.original_name, state.current_name),
                )
            )
    return combined
