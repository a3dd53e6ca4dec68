"""A small SQL front-end for the SPJ query AST.

The engine's native interface is the typed AST in
:mod:`repro.relational.query`; this module adds the convenience of
defining views from SQL text, covering exactly the paper's query class
(select-project-join with conjunctive predicates):

    CREATE VIEW BookInfo AS
    SELECT S.Store, I.Book, I.Price
    FROM retailer.Store S, retailer.Item I, library.Catalog C
    WHERE S.SID = I.SID AND I.Book = C.Title AND I.Price < 100

Because relations live at *named sources*, the FROM clause qualifies
each relation with its source (``source.Relation [alias]``).  Rendering
lives on the AST itself (`SPJQuery.sql()`, plain SQL for one engine);
:func:`sourced_sql` is the rendering this parser reads back.
"""

from __future__ import annotations

import re
from typing import Iterator

from .errors import QueryError
from .predicate import (
    TRUE,
    AttrComparison,
    AttrRef,
    Comparison,
    InPredicate,
    Predicate,
    conjunction,
)
from .query import JoinCondition, RelationRef, SPJQuery

_TOKEN = re.compile(
    r"""
    \s*(
        (?P<string>'(?:[^']|'')*')
      | (?P<number>-?\d+(?:\.\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op><=|>=|!=|<>|=|<|>)
      | (?P<punct>[(),.*])
    )
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "create", "view", "as", "select", "from", "where", "and", "in",
    "true", "false", "null", "not",
}


class _Tokens:
    """A peekable token stream."""

    def __init__(self, text: str) -> None:
        self._tokens = list(_tokenize(text))
        self._position = 0

    def peek(self) -> tuple[str, str] | None:
        if self._position >= len(self._tokens):
            return None
        return self._tokens[self._position]

    def next(self) -> tuple[str, str]:
        token = self.peek()
        if token is None:
            raise QueryError("unexpected end of SQL input")
        self._position += 1
        return token

    def expect_keyword(self, keyword: str) -> None:
        kind, value = self.next()
        if kind != "name" or value.lower() != keyword:
            raise QueryError(f"expected {keyword.upper()!r}, got {value!r}")

    def expect_punct(self, punct: str) -> None:
        kind, value = self.next()
        if kind != "punct" or value != punct:
            raise QueryError(f"expected {punct!r}, got {value!r}")

    def accept_punct(self, punct: str) -> bool:
        token = self.peek()
        if token and token[0] == "punct" and token[1] == punct:
            self._position += 1
            return True
        return False

    def accept_keyword(self, keyword: str) -> bool:
        token = self.peek()
        if token and token[0] == "name" and token[1].lower() == keyword:
            self._position += 1
            return True
        return False


def _tokenize(text: str) -> Iterator[tuple[str, str]]:
    position = 0
    while position < len(text):
        match = _TOKEN.match(text, position)
        if match is None:
            remainder = text[position:].strip()
            if not remainder:
                return
            raise QueryError(f"cannot tokenize SQL at: {remainder[:20]!r}")
        position = match.end()
        for kind in ("string", "number", "name", "op", "punct"):
            value = match.group(kind)
            if value is not None:
                yield kind, value
                break


def parse_view(text: str) -> tuple[str, SPJQuery]:
    """Parse ``CREATE VIEW name AS SELECT ...``; returns (name, query)."""
    tokens = _Tokens(text)
    tokens.expect_keyword("create")
    tokens.expect_keyword("view")
    kind, name = tokens.next()
    if kind != "name":
        raise QueryError(f"expected view name, got {name!r}")
    tokens.expect_keyword("as")
    return name, _parse_select(tokens)


def parse_query(text: str) -> SPJQuery:
    """Parse a bare ``SELECT ...`` statement."""
    return _parse_select(_Tokens(text))


def sourced_sql(query: SPJQuery) -> str:
    """Render with ``source.Relation alias`` FROM items.

    ``SPJQuery.sql()`` drops the source qualifier (it renders plain SQL
    for a single engine, e.g. the SQLite backend), which the distributed
    grammar of :func:`parse_query` cannot re-read; this rendering is the
    parseable one.
    """
    select = ", ".join(ref.qualified() for ref in query.projection)
    from_clause = ", ".join(
        f"{ref.source}.{ref.relation} {ref.alias}"
        for ref in query.relations
    )
    terms = [join.sql() for join in query.joins]
    if query.selection is not TRUE:
        terms.append(query.selection.sql())
    sql = f"SELECT {select} FROM {from_clause}"
    if terms:
        sql += " WHERE " + " AND ".join(terms)
    return sql


def _parse_select(tokens: _Tokens) -> SPJQuery:
    tokens.expect_keyword("select")
    projection = _parse_projection(tokens)
    tokens.expect_keyword("from")
    relations = _parse_from(tokens)
    predicates: list[Predicate] = []
    joins: list[JoinCondition] = []
    if tokens.accept_keyword("where"):
        _parse_where(tokens, joins, predicates)
    if tokens.peek() is not None:
        raise QueryError(f"trailing tokens after query: {tokens.peek()}")
    return SPJQuery(
        relations=tuple(relations),
        projection=tuple(projection),
        joins=tuple(joins),
        selection=conjunction(predicates),
    )


def _parse_projection(tokens: _Tokens) -> list[AttrRef]:
    projection: list[AttrRef] = []
    while True:
        projection.append(_parse_attr_ref(tokens))
        if not tokens.accept_punct(","):
            return projection


def _parse_attr_ref(tokens: _Tokens) -> AttrRef:
    kind, first = tokens.next()
    if kind != "name":
        raise QueryError(f"expected attribute reference, got {first!r}")
    if tokens.accept_punct("."):
        kind, second = tokens.next()
        if kind != "name":
            raise QueryError(f"expected attribute name, got {second!r}")
        return AttrRef(first, second)
    return AttrRef(None, first)


def _parse_from(tokens: _Tokens) -> list[RelationRef]:
    relations: list[RelationRef] = []
    while True:
        kind, source = tokens.next()
        if kind != "name":
            raise QueryError(f"expected source name, got {source!r}")
        tokens.expect_punct(".")
        kind, relation = tokens.next()
        if kind != "name":
            raise QueryError(f"expected relation name, got {relation!r}")
        alias = relation
        token = tokens.peek()
        if (
            token
            and token[0] == "name"
            and token[1].lower() not in _KEYWORDS
        ):
            alias = tokens.next()[1]
        relations.append(RelationRef(source, relation, alias))
        if not tokens.accept_punct(","):
            return relations


def _parse_where(
    tokens: _Tokens,
    joins: list[JoinCondition],
    predicates: list[Predicate],
) -> None:
    while True:
        _parse_condition(tokens, joins, predicates)
        if not tokens.accept_keyword("and"):
            return


def _parse_condition(
    tokens: _Tokens,
    joins: list[JoinCondition],
    predicates: list[Predicate],
) -> None:
    left = _parse_attr_ref(tokens)
    if tokens.accept_keyword("in"):
        tokens.expect_punct("(")
        values = []
        while not tokens.accept_punct(")"):  # ``IN ()`` is an empty list
            if values:
                tokens.expect_punct(",")
            values.append(_parse_literal(tokens))
        predicates.append(InPredicate(left, frozenset(values)))
        return

    kind, op = tokens.next()
    if kind != "op":
        raise QueryError(f"expected comparison operator, got {op!r}")
    if op == "<>":
        op = "!="

    token = tokens.peek()
    if token is None:
        raise QueryError("unexpected end of condition")
    if token[0] == "name" and token[1].lower() not in _KEYWORDS:
        right = _parse_attr_ref(tokens)
        if op == "=" and left.relation and right.relation:
            joins.append(JoinCondition(left, right))
        else:
            predicates.append(AttrComparison(left, op, right))
        return
    predicates.append(Comparison(left, op, _parse_literal(tokens)))


def _parse_literal(tokens: _Tokens):
    kind, value = tokens.next()
    if kind == "string":
        return value[1:-1].replace("''", "'")
    if kind == "number":
        return float(value) if "." in value else int(value)
    if kind == "name" and value.lower() == "true":
        return True
    if kind == "name" and value.lower() == "false":
        return False
    if kind == "name" and value.lower() == "null":
        return None
    raise QueryError(f"expected literal, got {value!r}")
