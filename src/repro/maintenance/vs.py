"""View synchronization (VS): rewriting the view under schema changes.

After a source schema change, the old view definition is no longer well
defined.  VS produces a new (possibly non-equivalent, footnote 1 of the
paper) definition, in the spirit of the EVE system [9]:

* renames propagate through the query;
* a dropped attribute is replaced from the meta-knowledge base when a
  stand-in exists (the ``ReaderDigest.Comments AS Review`` rewriting of
  Query (4)), otherwise pruned from the view;
* a dropped relation is replaced by an MKB-declared alternative — the
  multi-relation form folds several aliases into one, reproducing the
  ``Store ⋈ Item → StoreItems`` rewriting of Query (3) — otherwise the
  relation is evolved out of the view.

The synchronizer is pure — it maps (definition, schema change) to a new
definition plus a :class:`RewriteReport` — except where a relation
replacement validates against live schemas (counted in ``consults``);
all timing is charged by the scheduler.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from dataclasses import dataclass, field

from ..relational.errors import ReproError
from ..relational.predicate import AttrRef, conjunction
from ..relational.query import JoinCondition, RelationRef, SPJQuery
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
from ..sources.mkb import MetaKnowledgeBase, RelationReplacement
from .decompose import selection_conjuncts

if TYPE_CHECKING:
    from ..views.definition import ViewDefinition


class ViewSynchronizationError(ReproError):
    """The view could not be rewritten over the changed schema."""


@dataclass
class RewriteReport:
    """What one synchronization step did (diagnostics and tests)."""

    changed: bool = False
    replaced_relations: list[str] = field(default_factory=list)
    pruned_attributes: list[str] = field(default_factory=list)
    added_relations: list[str] = field(default_factory=list)
    removed_relations: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


@dataclass
class SynchronizationResult:
    definition: ViewDefinition
    report: RewriteReport


class ViewSynchronizer:
    """Rewrites view definitions after schema changes."""

    def __init__(
        self,
        mkb: MetaKnowledgeBase | None = None,
        schema_lookup=None,
        extend_on_add: bool = False,
    ) -> None:
        """``schema_lookup(source, relation) -> RelationSchema | None``
        optionally validates replacement attributes against live schemas;
        when absent the MKB mapping is trusted.

        ``extend_on_add`` opts into the EVE-style view-extension policy:
        an ``AddAttribute`` on a relation in the view appends the new
        attribute to the view projection (by default additions are
        ignored, preserving the original projection).
        """
        self.mkb = mkb or MetaKnowledgeBase()
        self.schema_lookup = schema_lookup and self._counted(schema_lookup)
        self.extend_on_add = extend_on_add
        #: live-schema reads so far, counted in the accessor itself
        self.consults = 0

    def _counted(self, lookup):
        def counted(source: str, relation: str):
            self.consults += 1
            return lookup(source, relation)

        return counted

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------

    def synchronize(
        self, view: ViewDefinition, message: UpdateMessage
    ) -> SynchronizationResult:
        payload = message.payload
        if not isinstance(payload, SchemaChange):
            raise ViewSynchronizationError(
                f"not a schema change: {payload.describe()}"
            )
        return self.synchronize_change(view, message.source, payload)

    def synchronize_change(
        self, view: ViewDefinition, source: str, change: SchemaChange
    ) -> SynchronizationResult:
        """Rewrite ``view`` for one (possibly combined) schema change."""
        report = RewriteReport()
        query = self._rewrite(view.query, source, change, report)
        if query is view.query:
            return SynchronizationResult(view, report)
        report.changed = True
        return SynchronizationResult(view.rewritten(query), report)

    # ------------------------------------------------------------------
    # per-change rewrites
    # ------------------------------------------------------------------

    def _rewrite(
        self,
        query: SPJQuery,
        source: str,
        change: SchemaChange,
        report: RewriteReport,
    ) -> SPJQuery:
        if isinstance(change, RenameRelation):
            if not query.references_relation(source, change.old):
                return query
            return query.with_relation_renamed(source, change.old, change.new)

        if isinstance(change, RenameAttribute):
            if not query.references_attribute(
                source, change.relation, change.old
            ):
                return query
            for ref in query.relations:
                if ref.source == source and ref.relation == change.relation:
                    query = query.with_attribute_renamed(
                        ref.alias, change.old, change.new
                    )
            return query

        if isinstance(change, AddAttribute):
            if not self.extend_on_add:
                return query  # additions never invalidate the view
            return self._extend_with_attribute(query, source, change, report)

        if isinstance(change, CreateRelation):
            return query  # new relations never invalidate the view

        if isinstance(change, DropAttribute):
            if not query.references_attribute(
                source, change.relation, change.attribute
            ):
                return query
            return self._drop_attribute(
                query, source, change.relation, change.attribute, report
            )

        if isinstance(change, DropRelation):
            if not query.references_relation(source, change.relation):
                return query
            rule = self.mkb.relation_replacement(source, change.relation)
            if rule is None:
                return self._remove_relation(
                    query, source, change.relation, report
                )
            return self._apply_relation_replacement(query, source, rule, report)

        if isinstance(change, RestructureRelations):
            referenced = [
                relation
                for relation in change.dropped
                if query.references_relation(source, relation)
            ]
            if not referenced:
                return query
            rule = self.mkb.relation_replacement(source, change.dropped[0])
            if rule is None:
                rule = self._auto_rule(source, change)
                report.notes.append(
                    f"auto-derived replacement rule onto "
                    f"{change.new_schema.name}"
                )
            return self._apply_relation_replacement(query, source, rule, report)

        raise ViewSynchronizationError(
            f"unsupported schema change {change.describe()}"
        )

    def _extend_with_attribute(
        self,
        query: SPJQuery,
        source: str,
        change: AddAttribute,
        report: RewriteReport,
    ) -> SPJQuery:
        """View-extension policy: surface newly added attributes."""
        from dataclasses import replace as _replace

        extended = query
        for ref in query.relations:
            if ref.source != source or ref.relation != change.relation:
                continue
            new_ref = AttrRef(ref.alias, change.attribute.name)
            if new_ref in extended.projection:
                continue
            extended = _replace(
                extended, projection=extended.projection + (new_ref,)
            )
            report.notes.append(
                f"extended projection with {new_ref.qualified()}"
            )
        return extended

    # ------------------------------------------------------------------
    # drop attribute
    # ------------------------------------------------------------------

    def _drop_attribute(
        self,
        query: SPJQuery,
        source: str,
        relation: str,
        attribute: str,
        report: RewriteReport,
    ) -> SPJQuery:
        aliases = [
            ref.alias
            for ref in query.relations
            if ref.source == source and ref.relation == relation
        ]
        for alias in aliases:
            target = AttrRef(alias, attribute)
            rule = self.mkb.attribute_replacement(source, relation, attribute)
            if rule is not None:
                rewritten = self._apply_attribute_replacement(
                    query, target, rule, report
                )
                if rewritten is not None:
                    query = rewritten
                    continue
            query = self._prune_attribute(query, target, report)
        return query

    def _apply_attribute_replacement(
        self, query: SPJQuery, target: AttrRef, rule, report: RewriteReport
    ) -> SPJQuery | None:
        # The stand-in relation joins the view on rule.join_on =
        # (surviving_relation, surviving_attribute).
        anchor_alias = None
        for ref in query.relations:
            if ref.relation == rule.join_on[0]:
                anchor_alias = ref.alias
                break
        if anchor_alias is None:
            report.notes.append(
                f"attribute replacement for {target.qualified()} "
                f"needs relation {rule.join_on[0]!r} which is not in the view"
            )
            return None
        new_alias = self._fresh_alias(query, rule.new_relation)
        new_ref = RelationRef(rule.new_source, rule.new_relation, new_alias)
        substitution = {target: AttrRef(new_alias, rule.new_attribute)}
        # Substitute components individually: the new alias must be in
        # the relation list before SPJQuery validates references.
        relations = query.relations + (new_ref,)
        projection = tuple(
            substitution.get(ref, ref) for ref in query.projection
        )
        joins = tuple(
            join.substituted(substitution) for join in query.joins
        ) + (
            JoinCondition(
                AttrRef(anchor_alias, rule.join_on[1]),
                AttrRef(new_alias, rule.join_attribute),
            ),
        )
        selection = query.selection.substituted(substitution)
        report.added_relations.append(rule.new_relation)
        report.notes.append(
            f"{target.qualified()} replaced by "
            f"{new_alias}.{rule.new_attribute}"
        )
        return SPJQuery(relations, projection, joins, selection)

    def _prune_attribute(
        self, query: SPJQuery, target: AttrRef, report: RewriteReport
    ) -> SPJQuery:
        in_joins = any(target in join.references() for join in query.joins)
        if in_joins:
            # A broken join with no stand-in: evolve the relation out of
            # the view entirely rather than degrade to a cross product.
            report.notes.append(
                f"join attribute {target.qualified()} dropped without "
                f"replacement; removing relation {target.relation!r}"
            )
            return self._remove_alias(query, target.relation, report)
        projection = tuple(
            ref for ref in query.projection if ref != target
        )
        if not projection:
            raise ViewSynchronizationError(
                f"dropping {target.qualified()} would empty the view"
            )
        selection = conjunction(
            [
                term
                for term in selection_conjuncts(query)
                if target not in term.references()
            ]
        )
        report.pruned_attributes.append(target.qualified())
        return SPJQuery(query.relations, projection, query.joins, selection)

    # ------------------------------------------------------------------
    # drop / replace relations
    # ------------------------------------------------------------------

    def _remove_relation(
        self, query: SPJQuery, source: str, relation: str, report: RewriteReport
    ) -> SPJQuery:
        for ref in list(query.relations):
            if ref.source == source and ref.relation == relation:
                query = self._remove_alias(query, ref.alias, report)
        return query

    def _remove_alias(
        self, query: SPJQuery, alias: str | None, report: RewriteReport
    ) -> SPJQuery:
        if alias is None:
            raise ViewSynchronizationError("cannot remove unqualified alias")
        try:
            pruned = query.without_relation(alias)
        except Exception as exc:
            raise ViewSynchronizationError(
                f"cannot evolve relation {alias!r} out of the view: {exc}"
            ) from exc
        report.removed_relations.append(alias)
        return pruned

    def _apply_relation_replacement(
        self,
        query: SPJQuery,
        source: str,
        rule: RelationReplacement,
        report: RewriteReport,
    ) -> SPJQuery:
        covered_refs = [
            ref
            for ref in query.relations
            if ref.source == source and ref.relation in rule.covers
        ]
        if not covered_refs:
            return query
        keep_alias = covered_refs[0].alias
        covered_aliases = {ref.alias: ref.relation for ref in covered_refs}

        new_schema = None
        if self.schema_lookup is not None:
            new_schema = self.schema_lookup(rule.new_source, rule.new_relation)

        # Build the attribute substitution for every reference on a
        # covered alias; unmappable references are pruned.
        substitution: dict[AttrRef, AttrRef] = {}
        unmappable: list[AttrRef] = []
        for ref in query.all_attribute_refs():
            if ref.relation not in covered_aliases:
                continue
            old_relation = covered_aliases[ref.relation]
            mapped = rule.maps_attribute(old_relation, ref.name)
            if mapped is None:
                mapped = ref.name  # assume the name survives
            if new_schema is not None and mapped not in new_schema:
                unmappable.append(ref)
                continue
            substitution[ref] = AttrRef(keep_alias, mapped)

        # Prune unmappable projection refs and selection conjuncts.
        projection = tuple(
            ref for ref in query.projection if ref not in unmappable
        )
        if not projection:
            raise ViewSynchronizationError(
                "relation replacement would empty the view projection"
            )
        selection_terms = [
            term
            for term in selection_conjuncts(query)
            if not (set(term.references()) & set(unmappable))
        ]

        # Drop joins internal to the covered set; keep external joins
        # unless they use an unmappable attribute.
        joins: list[JoinCondition] = []
        for join in query.joins:
            sides_covered = [
                join.left.relation in covered_aliases,
                join.right.relation in covered_aliases,
            ]
            if all(sides_covered):
                continue  # internal: the replacement already embodies it
            if set(join.references()) & set(unmappable):
                raise ViewSynchronizationError(
                    f"replacement breaks external join {join.sql()}"
                )
            joins.append(join)

        relations: list[RelationRef] = []
        inserted = False
        for ref in query.relations:
            if ref.alias in covered_aliases:
                if not inserted:
                    relations.append(
                        RelationRef(
                            rule.new_source, rule.new_relation, keep_alias
                        )
                    )
                    inserted = True
                continue
            relations.append(ref)

        # Substitute before constructing: the covered aliases no longer
        # exist, and SPJQuery validates alias references on construction.
        rewritten = SPJQuery(
            tuple(relations),
            tuple(substitution.get(ref, ref) for ref in projection),
            tuple(join.substituted(substitution) for join in joins),
            conjunction(
                [term.substituted(substitution) for term in selection_terms]
            ),
        )
        for ref in unmappable:
            report.pruned_attributes.append(ref.qualified())
        report.replaced_relations.extend(sorted(covered_aliases.values()))
        report.notes.append(
            f"{', '.join(sorted(set(covered_aliases.values())))} replaced "
            f"by {rule.new_relation}"
        )
        return rewritten

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _auto_rule(
        self, source: str, change: RestructureRelations
    ) -> RelationReplacement:
        """Derive a same-name replacement rule for a restructuring."""
        attr_map: dict[tuple[str, str], str] = {}
        for relation, extent in change.dropped_extents.items():
            for attribute in extent.schema.attribute_names:
                if attribute in change.new_schema:
                    attr_map[(relation, attribute)] = attribute
        return RelationReplacement(
            source=source,
            covers=tuple(change.dropped),
            new_source=source,
            new_relation=change.new_schema.name,
            attr_map=attr_map,
        )

    @staticmethod
    def _fresh_alias(query: SPJQuery, base: str) -> str:
        candidate = base[0].upper()
        existing = set(query.aliases)
        if candidate not in existing:
            return candidate
        counter = 2
        while f"{candidate}{counter}" in existing:
            counter += 1
        return f"{candidate}{counter}"
