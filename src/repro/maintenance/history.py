"""Schema history: translating stale update names forward.

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
nothing.

Without this, a stale update is silently absorbed by the batch's
adaptation scans (convergence survives) but the view's *intermediate*
states stop corresponding to maintained prefixes — strong consistency
is lost — and attribute-level staleness can break the probe sweep
outright.  The strong-consistency integration tests pin this behaviour.
"""

from __future__ import annotations

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


class SchemaHistory:
    """Per-source record of installed schema changes.

    Keyed by name, not by commit era: a relation or attribute name is
    assumed never to be reused within a lineage (the workload
    generators version every rename, ``R__v2``).  A reused name is
    ambiguous — an update committed under the later use reads as stale.
    """

    def __init__(self) -> None:
        #: (source, past name) -> current name, or None if dropped
        self._relation_now: dict[tuple[str, str], str | None] = {}
        #: (source, current relation) -> {past attribute -> current or None}
        self._attribute_now: dict[tuple[str, str], dict[str, str | None]] = {}
        #: (source, current relation) -> attributes added after the fact
        self._added: dict[tuple[str, str], list] = {}
        #: id(message) -> (message, its translation) under the changes
        #: recorded so far: :meth:`record` starts it over, so a message
        #: is translated once per installed change, not once per probe
        #: answer it leaked into (the entry holds the message, so its id
        #: is not reused)
        self._translated: dict[
            int, tuple[UpdateMessage, UpdateMessage | None]
        ] = {}

    def is_empty(self) -> bool:
        return not (
            self._relation_now or self._attribute_now or self._added
        )

    # ------------------------------------------------------------------
    # recording installed changes
    # ------------------------------------------------------------------

    def record(self, source: str, change: SchemaChange) -> None:
        self._translated.clear()
        if isinstance(change, RenameRelation):
            self._rename_relation(source, change.old, change.new)
        elif isinstance(change, RenameAttribute):
            relation = self.current_relation(source, change.relation)
            if relation is None:
                return
            attributes = self._attribute_now.setdefault(
                (source, relation), {}
            )
            # re-point every past name that currently maps to `old`
            for past, now in attributes.items():
                if now == change.old:
                    attributes[past] = change.new
            attributes.setdefault(change.old, change.new)
        elif isinstance(change, DropAttribute):
            relation = self.current_relation(source, change.relation)
            if relation is None:
                return
            attributes = self._attribute_now.setdefault(
                (source, relation), {}
            )
            for past, now in attributes.items():
                if now == change.attribute:
                    attributes[past] = None
            attributes.setdefault(change.attribute, None)
        elif isinstance(change, DropRelation):
            self._drop_relation(source, change.relation)
        elif isinstance(change, RestructureRelations):
            for relation in change.dropped:
                self._drop_relation(source, relation)
            # the created relation starts a fresh lineage
            self._relation_now.pop(
                (source, change.new_schema.name), None
            )
        elif isinstance(change, AddAttribute):
            relation = self.current_relation(source, change.relation)
            if relation is None:
                return
            self._added.setdefault((source, relation), []).append(
                change.attribute
            )
        elif isinstance(change, CreateRelation):
            pass  # a brand-new relation needs no translation
        # unknown change kinds are ignored: translation is best-effort

    def _rename_relation(self, source: str, old: str, new: str) -> None:
        current_old = self.current_relation(source, old)
        for key, now in list(self._relation_now.items()):
            if key[0] == source and now == old:
                self._relation_now[key] = new
        self._relation_now[(source, old)] = new
        # attribute maps are keyed by current relation name: re-key
        if current_old is not None:
            attributes = self._attribute_now.pop(
                (source, current_old), None
            )
            if attributes is not None:
                self._attribute_now[(source, new)] = attributes
            added = self._added.pop((source, current_old), None)
            if added is not None:
                self._added[(source, new)] = added

    def _drop_relation(self, source: str, relation: str) -> None:
        for key, now in list(self._relation_now.items()):
            if key[0] == source and now == relation:
                self._relation_now[key] = None
        self._relation_now[(source, relation)] = None
        self._attribute_now.pop((source, relation), None)
        self._added.pop((source, relation), None)

    # ------------------------------------------------------------------
    # translation
    # ------------------------------------------------------------------

    def current_relation(self, source: str, name: str) -> str | None:
        """The relation's current name, or None if it was dropped."""
        return self._relation_now.get((source, name), name)

    def committed_names(self, source: str, relation: str) -> list[str]:
        """Every name an update on what is now ``relation`` can have
        committed under: the names whose :meth:`current_relation` is
        ``relation``.  A dropped name is nobody's past."""
        names = [
            past
            for (owner, past), now in self._relation_now.items()
            if owner == source and now == relation
        ]
        if (source, relation) not in self._relation_now:
            names.append(relation)
        return names

    def current_attribute(
        self, source: str, current_relation: str, past_attribute: str
    ) -> str | None:
        attributes = self._attribute_now.get((source, current_relation))
        if attributes is None:
            return past_attribute
        return attributes.get(past_attribute, past_attribute)

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
        current_name = self.current_relation(source, update.relation)
        if current_name is None:
            return None

        stale = update.delta.schema
        attributes: list[Attribute] = []
        positions: list[int | None] = []
        for index, attribute in enumerate(stale.attributes):
            mapped = self.current_attribute(
                source, current_name, attribute.name
            )
            if mapped is None:
                continue  # dropped since the commit
            attributes.append(Attribute(mapped, attribute.type))
            positions.append(index)
        present = {attribute.name for attribute in attributes}
        for added in self._added.get((source, current_name), []):
            # an added attribute is renamed and dropped like any other
            mapped = self.current_attribute(source, current_name, added.name)
            if mapped is not None and mapped not in present:
                attributes.append(added.renamed(mapped))
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
