"""Meta-knowledge base (MKB) of replacement mappings.

View synchronization in the EVE style [9] rewrites a view after a schema
change by consulting declared knowledge about *alternative* data sources:
which relation can stand in for a dropped one, and which attribute of
which other relation can substitute a dropped attribute (the paper's
``ReaderDigest.Comments as Review`` example, Query (4)).

The MKB holds two kinds of replacement rules:

* :class:`RelationReplacement` — one or *several* relations are covered
  by a single replacement relation.  The multi-relation form models the
  paper's Figure 2, where re-tuning the XML mapping collapses ``Store``
  and ``Item`` into one ``StoreItems`` table; when either is dropped, the
  view synchronizer folds all covered aliases into one alias of the new
  relation and discards the joins internal to the covered set (yielding
  exactly Query (3)).
* :class:`AttributeReplacement` — a dropped attribute is recovered from
  another relation via a join (yielding Query (4)).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class RelationReplacement:
    """Replace one or more relations of a source by a new relation."""

    #: source that owned the covered relations
    source: str
    #: relation names covered by this replacement (usually one)
    covers: tuple[str, ...]
    #: where the replacement lives
    new_source: str
    new_relation: str
    #: maps (covered_relation, old_attribute) -> new_attribute
    attr_map: dict[tuple[str, str], str] = field(default_factory=dict)

    def maps_attribute(self, relation: str, attribute: str) -> str | None:
        return self.attr_map.get((relation, attribute))


@dataclass(frozen=True)
class AttributeReplacement:
    """Recover a dropped attribute from another relation via a join."""

    source: str
    relation: str
    attribute: str
    #: the stand-in
    new_source: str
    new_relation: str
    new_attribute: str
    #: equi-join linking the stand-in relation into the view:
    #: (surviving_relation, surviving_attribute) joins
    #: (new_relation, join_attribute)
    join_on: tuple[str, str]
    join_attribute: str


class MetaKnowledgeBase:
    """Registry of replacement rules consulted by view synchronization.

    Register rules before the first update arrives: a queued schema
    change's remembered speculative rewrite never sees a later rule."""

    def __init__(self) -> None:
        self._relation_rules: list[RelationReplacement] = []
        self._attribute_rules: list[AttributeReplacement] = []

    def add_relation_replacement(self, rule: RelationReplacement) -> None:
        self._relation_rules.append(rule)

    def add_attribute_replacement(self, rule: AttributeReplacement) -> None:
        self._attribute_rules.append(rule)

    def relation_replacement(
        self, source: str, relation: str
    ) -> RelationReplacement | None:
        """First rule covering ``relation`` at ``source``, if any."""
        for rule in self._relation_rules:
            if rule.source == source and relation in rule.covers:
                return rule
        return None

    def attribute_replacement(
        self, source: str, relation: str, attribute: str
    ) -> AttributeReplacement | None:
        for rule in self._attribute_rules:
            if (
                rule.source == source
                and rule.relation == relation
                and rule.attribute == attribute
            ):
                return rule
        return None

    def __len__(self) -> int:
        return len(self._relation_rules) + len(self._attribute_rules)
