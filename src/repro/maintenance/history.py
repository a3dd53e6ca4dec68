"""Schema history: how each name evolved, read by every consumer.

Correction can legally move a schema-change batch *ahead* of a data
update that committed under the old schema (the CD edge of another
relation forces the batch forward; no semantic dependency pins the DU).
When that data update finally reaches the head, its payload still
speaks the old language — old relation name, old attribute names — while
the view definition and the sources have moved on.

The view manager therefore records every schema change it has
*installed* in a :class:`SchemaHistory` and translates stale data
updates forward before maintaining or compensating them: relation names
follow rename chains, attribute values are projected onto the current
layout (renamed attributes follow, dropped ones disappear, added ones
become NULL), and updates whose relation was dropped translate to
nothing.  Section 5's combination of a batch's schema changes reads the
same record (:func:`~repro.maintenance.batch.combine_schema_changes`).

Without this, a stale update is silently absorbed by the batch's
adaptation scans (convergence survives) but the view's *intermediate*
states stop corresponding to maintained prefixes — strong consistency
is lost — and attribute-level staleness can break the probe sweep
outright.  The strong-consistency integration tests pin this behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..relational.delta import Delta
from ..relational.schema import Attribute, RelationSchema
from ..sources.messages import (
    AddAttribute,
    CreateRelation,
    DataUpdate,
    DropAttribute,
    DropRelation,
    RenameAttribute,
    RenameRelation,
    RestructureRelations,
    SchemaChange,
    UpdateMessage,
)

#: translations remembered before the memo starts over (it is a
#: convenience: reset, not grown)
MEMO_CAPACITY = 1 << 12


class Lineages:
    """The lineages of one namespace, in first-touch order.  A name is
    looked up in its latest holder: the lineage that took it last."""

    def __init__(self) -> None:
        self.lineages: list[Lineage] = []
        self._holder: dict[tuple[str, str], Lineage] = {}

    def is_empty(self) -> bool:
        return not self._holder

    def holder(self, source: str, name: str) -> Lineage | None:
        return self._holder.get((source, name))

    def now(self, source: str, name: str) -> str | None:
        """What ``name`` is called now: itself if never recorded, None
        if its holder ended."""
        lineage = self._holder.get((source, name))
        return name if lineage is None else lineage.name

    def live(
        self, source: str, name: str, added: AddAttribute | None = None
    ) -> Lineage:
        """The lineage called ``name`` now, or a new one starting at it
        (always new for an addition)."""
        lineage = self._holder.get((source, name))
        if added is not None or lineage is None or lineage.name != name:
            lineage = Lineage(source, [name], added)
            self.lineages.append(lineage)
            self._holder[(source, name)] = lineage
        return lineage

    def rename(self, source: str, old: str, new: str) -> None:
        lineage = self.live(source, old)
        lineage.names.append(new)
        self._holder[(source, new)] = lineage

    def end(self, source: str, name: str, change: SchemaChange) -> None:
        self.live(source, name).ended = change

    def release(self, source: str, name: str) -> None:
        """A created name starts over: no recorded change reaches it."""
        self._holder.pop((source, name), None)


@dataclass(eq=False)
class Lineage:
    """One relation or attribute through the recorded changes."""

    source: str
    #: every name it has had, oldest first
    names: list[str]
    #: how an added attribute began, its default included
    added: AddAttribute | None = None
    #: the change that ended it (a drop keeps its extent)
    ended: SchemaChange | None = None
    #: a relation's attributes
    attributes: Lineages = field(default_factory=Lineages)

    @property
    def name(self) -> str | None:
        """The current name; None once ended."""
        return None if self.ended is not None else self.names[-1]


class SchemaHistory:
    """Per-source record of installed schema changes, one lineage per
    relation and per attribute.

    A reused name follows its latest holder: after ``drop R; rename S ->
    R`` (or ``drop R; create R``) the name ``R`` is the new relation's,
    and likewise for an attribute added, renamed away and added again.
    The rule reads every update committed under a name's *current*
    holder correctly.  One committed under an earlier holder is never
    pending once the reuse is installed: the reuse touches the name, so
    a semantic dependency orders every update on the earlier holder
    before the change that ended or renamed it, and that change before
    the reuse.
    """

    def __init__(self) -> None:
        #: relation lineages of every source, in first-touch order
        self.relations = Lineages()
        #: id(message) -> (message, its translation) under the changes
        #: recorded so far: :meth:`record` starts it over, so a message
        #: is translated once per installed change, not once per probe
        #: answer it leaked into (the entry holds the message, so its id
        #: is not reused)
        self._translated: dict[
            int, tuple[UpdateMessage, UpdateMessage | None]
        ] = {}

    def is_empty(self) -> bool:
        """True while no recorded change reaches any name."""
        return self.relations.is_empty()

    def record(self, source: str, change: SchemaChange) -> None:
        self._translated.clear()
        relations = self.relations
        if isinstance(change, RenameRelation):
            relations.rename(source, change.old, change.new)
        elif isinstance(change, DropRelation):
            relations.end(source, change.relation, change)
        elif isinstance(change, RestructureRelations):
            for relation in change.dropped:
                relations.end(source, relation, change)
            relations.release(source, change.new_schema.name)
        elif isinstance(change, CreateRelation):
            relations.release(source, change.schema.name)
        elif isinstance(change, (RenameAttribute, DropAttribute, AddAttribute)):
            attributes = relations.live(source, change.relation).attributes
            if isinstance(change, RenameAttribute):
                attributes.rename(source, change.old, change.new)
            elif isinstance(change, DropAttribute):
                attributes.end(source, change.attribute, change)
            else:
                attributes.live(source, change.attribute.name, change)
        # unknown change kinds are ignored: translation is best-effort

    # ------------------------------------------------------------------
    # translation
    # ------------------------------------------------------------------

    def committed_names(self, source: str, relation: str) -> list[str]:
        """Every name an update on what is now ``relation`` can have
        committed under: the names that are called ``relation`` now
        (``relations.now``).  A dropped name is nobody's past."""
        lineage = self.relations.holder(source, relation)
        if lineage is None:
            return [relation]
        if lineage.name != relation:
            return []
        return [
            name
            for name in dict.fromkeys(lineage.names)
            if self.relations.holder(source, name) is lineage
        ]

    def translate_data_update(
        self, source: str, update: DataUpdate
    ) -> DataUpdate | None:
        """Project a (possibly stale) data update through the history.

        The target layout is derived purely from the *recorded* changes
        — NOT the live source schema, which may already be ahead of what
        the view manager has maintained (later schema changes are still
        queued).  Returns ``None`` when the relation was dropped;
        returns the update unchanged when nothing recorded affects it.
        """
        lineage = self.relations.holder(source, update.relation)
        if lineage is None:
            return update
        current_name = lineage.name
        if current_name is None:
            return None

        recorded = lineage.attributes
        stale = update.delta.schema
        attributes: list[Attribute] = []
        positions: list[int | None] = []
        for index, attribute in enumerate(stale.attributes):
            mapped = recorded.now(source, attribute.name)
            if mapped is None:
                continue  # dropped since the commit
            attributes.append(Attribute(mapped, attribute.type))
            positions.append(index)
        present = {attribute.name for attribute in attributes}
        for added in recorded.lineages:
            # an added attribute is renamed and dropped like any other
            mapped = added.name
            if added.added is not None and mapped and mapped not in present:
                attributes.append(added.added.attribute.renamed(mapped))
                positions.append(None)
                present.add(mapped)

        unchanged = (
            current_name == update.relation
            and tuple(a.name for a in attributes) == stale.attribute_names
        )
        if unchanged:
            return update

        schema = RelationSchema(current_name, tuple(attributes))
        translated = Delta(schema)
        for row, count in update.delta.items():
            translated.add(
                tuple(
                    row[position] if position is not None else None
                    for position in positions
                ),
                count,
            )
        return DataUpdate(current_name, translated)

    def translate_message(
        self, message: UpdateMessage
    ) -> UpdateMessage | None:
        """The data-update ``message`` with its payload speaking the
        current schema: ``message`` itself when nothing recorded affects
        it (always, while nothing was recorded), ``None`` when its
        relation no longer exists.  Remembered per message until the
        next :meth:`record`; the result is shared, never mutate it."""
        if self.is_empty():
            return message
        known = self._translated.get(id(message))
        if known is not None:
            return known[1]
        payload = self.translate_data_update(message.source, message.payload)
        if payload is None:
            translated = None
        elif payload is message.payload:
            translated = message
        else:
            translated = UpdateMessage(
                message.source, message.seqno, message.committed_at, payload
            )
        if len(self._translated) >= MEMO_CAPACITY:
            self._translated.clear()
        self._translated[id(message)] = (message, translated)
        return translated
