"""The prepared SQL boundary of :class:`SqliteDataSource`.

A probe is bound, not rendered: one ``?``-placeholder text per (query
shape, IN-list arity bucket), answered from an index built on first
probe of a column.  The literal path the source used to take —
``query.sql()`` handed to SQLite as is — lives on here as the oracle.
"""

import sqlite3
from collections import Counter

import pytest

from repro.relational.errors import ArityError, TypeMismatchError
from repro.relational.predicate import Comparison, InPredicate, attr
from repro.relational.query import RelationRef, SPJQuery
from repro.relational.schema import RelationSchema
from repro.relational.types import AttributeType
from repro.sources.errors import ProbeArityError, TransientSourceError
from repro.sources.messages import CreateRelation, RestructureRelations
from repro.sources.source import DataSource
from repro.sources.sqlite_source import SqliteDataSource

PERSON = RelationSchema.of(
    "Person",
    [
        ("K", AttributeType.INT),
        "Name",
        ("Active", AttributeType.BOOL),
        ("Score", AttributeType.FLOAT),
    ],
)
NAMES = ["O'Brien", "Ada", "Grace", None]
ROWS = [
    (key, NAMES[key % 4], key % 3 == 0, key / 2 if key % 5 else None)
    for key in range(40)
] + [(7, "Grace", False, 3.5)] * 2  # duplicates: answers are bags


def twins():
    memory, sqlite = DataSource("s"), SqliteDataSource("s")
    for source in (memory, sqlite):
        source.create_relation(PERSON, ROWS)
    return memory, sqlite


def probe(column, values, *projection, extra=None):
    selection = InPredicate(attr("P", column), frozenset(values))
    if extra is not None:
        selection = selection & extra
    return SPJQuery(
        relations=(RelationRef("s", "Person", "P"),),
        projection=tuple(
            attr("P", name) for name in projection or ("K", "Name")
        ),
        selection=selection,
    )


def literal_oracle(sqlite, query) -> Counter:
    """What the source answered before it prepared: the query rendered
    with its values as literals, run as is (stored values, untyped)."""
    return Counter(sqlite._db.execute(query.sql()).fetchall())


def stored(table) -> Counter:
    """An answer as SQLite stores it (a ``bool`` is 0/1 there)."""
    return Counter(
        {
            tuple(int(v) if isinstance(v, bool) else v for v in row): count
            for row, count in table.items()
        }
    )


def indexes(sqlite) -> set[str]:
    return {
        name
        for (name,) in sqlite._db.execute(
            "SELECT name FROM sqlite_master WHERE type = 'index'"
        )
    }


class Recording:
    """A connection that notes every statement text it is handed."""

    def __init__(self, db):
        self._db = db
        self.texts = Counter()

    def execute(self, sql, *bindings):
        self.texts[sql] += 1
        return self._db.execute(sql, *bindings)

    def __getattr__(self, name):
        return getattr(self._db, name)


def test_sweep_leaves_one_record_per_shape_and_bucket():
    _, sqlite = twins()
    sqlite._db = Recording(sqlite._db)
    shapes, buckets = 2, 3  # probed column K or Name; arity 1, 2, 3-4
    for step in range(200):
        arity = step % 4 + 1
        keys = {(step * 7 + offset) % 40 for offset in range(arity)}
        if step // 4 % 2:
            sqlite.execute(probe("K", keys))
        else:
            sqlite.execute(probe("Name", {f"n{key}" for key in keys}))
    assert len(sqlite._statements) == shapes * buckets
    selects = {
        text: count
        for text, count in sqlite._db.texts.items()
        if text.startswith("SELECT")
    }
    assert len(selects) == shapes * buckets  # what SQLite was handed
    assert sum(selects.values()) == 200
    assert not any("'" in text for text in selects)  # no literal values


@pytest.mark.parametrize("arity", [1, 2, 3, 5, 8, 9])
def test_every_arity_answers_like_the_oracles(arity):
    memory, sqlite = twins()
    query = probe("K", range(5, 5 + arity), "K", "Name", "Active", "Score")
    answer = sqlite.execute(query)
    assert answer == memory.execute(query)
    assert stored(answer) == literal_oracle(sqlite, query)
    assert len(answer) == arity + (2 if arity >= 3 else 0)  # three rows hold key 7


@pytest.mark.parametrize(
    "column, values",
    [
        # SQL's IN never matches NULL; Person.K holds none, so the
        # in-memory source (Python's ``in``) agrees
        ("K", [3, None]),
        ("Name", ["O'Brien"]),
        ("Name", ["O'Brien", "Ada", "no such"]),
        ("Active", [True]),
        ("Score", [3.5, 4.0, 0.5]),
    ],
    ids=["none", "quoted", "strings", "bool", "float"],
)
def test_value_kinds_answer_like_the_oracles(column, values):
    memory, sqlite = twins()
    query = probe(column, values, "K", "Name", "Active", "Score")
    answer = sqlite.execute(query)
    assert len(answer) > 0
    assert answer == memory.execute(query)
    assert stored(answer) == literal_oracle(sqlite, query)
    for row in answer:  # typed on the way out: BOOL, FLOAT, None
        assert isinstance(row[2], bool)
        assert row[3] is None or isinstance(row[3], float)


def test_constants_stay_in_the_shape_and_lists_bind_in_order():
    memory, sqlite = twins()
    query = probe(
        "K", [1, 2, 3, 6, 9], "K", "Active",
        extra=Comparison(attr("P", "Name"), "!=", "O'Brien")
        & InPredicate(attr("P", "Active"), frozenset([True])),
    )
    assert sqlite.execute(query) == memory.execute(query)
    # key 3 is active too, but its Name is NULL: ``!=`` is not true of it
    assert sorted(sqlite.execute(query).rows()) == [(6, True), (9, True)]


def test_empty_list_answers_empty():
    memory, sqlite = twins()
    query = probe("K", [])
    assert len(sqlite.execute(query)) == len(memory.execute(query)) == 0


def test_only_the_values_a_query_binds_can_cross_the_limit():
    memory, sqlite = twins()
    sqlite._db.setlimit(sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER, 12)
    padded_over = probe("K", range(8, 17))  # 9 values would pad to 16
    assert sqlite.execute(padded_over) == memory.execute(padded_over)
    assert len(sqlite.execute(probe("K", range(8, 20)))) == 12
    two_lists = probe(
        "K", range(8, 17), extra=InPredicate(attr("P", "Name"), frozenset(NAMES[:3]))
    )  # 9 + 3 values, 16 + 4 placeholders padded
    assert sqlite.execute(two_lists) == memory.execute(two_lists)
    seen = []
    sqlite._db.set_trace_callback(seen.append)
    with pytest.raises(ProbeArityError) as raised:
        sqlite.execute(probe("K", range(8, 21)))
    assert (raised.value.arity, raised.value.limit) == (13, 12)
    assert "13" in str(raised.value) and "12" in str(raised.value)
    assert seen == []  # refused before any SQL


def test_fault_gate_raises_before_any_sql():
    _, sqlite = twins()
    seen = []
    sqlite._db.set_trace_callback(seen.append)

    def gate(name):
        raise TransientSourceError(name, "down")

    sqlite.fault_gate = gate
    with pytest.raises(TransientSourceError):
        sqlite.execute(probe("K", [1]))
    assert seen == [] and indexes(sqlite) == set()
    assert sqlite._statements == {}


def test_index_is_built_by_the_first_probe_of_a_column():
    _, sqlite = twins()
    assert indexes(sqlite) == set()
    sqlite.execute(probe("K", [1]))
    assert indexes(sqlite) == {"Person.K"}
    sqlite.execute(probe("K", [2, 3]))
    sqlite.execute(probe("Name", ["Ada"]))
    assert indexes(sqlite) == {"Person.K", "Person.Name"}
    plan = sqlite._db.execute(
        "EXPLAIN QUERY PLAN SELECT * FROM Person P WHERE P.K IN (?1, ?2)",
        (1, 2),
    ).fetchall()
    assert "USING INDEX Person.K" in plan[0][-1]


def test_adoption_roundtrips_types_nulls_and_duplicates():
    """One cursor -> table helper behind ``catalog.table`` and
    ``execute``: BOOL and FLOAT typed back, ``None`` kept, copies
    counted; an ``int`` loaded into a FLOAT column comes back widened,
    as the in-memory table stores it."""
    memory, sqlite = twins()
    for source in (memory, sqlite):
        source.create_relation(
            PERSON.renamed("Extra"), [(1, None, None, 2), (1, None, None, 2)]
        )
    everything = probe("K", range(40), "K", "Name", "Active", "Score")
    for table in (sqlite.catalog.table("Person"), sqlite.execute(everything)):
        assert table == memory.catalog.table("Person")
        assert table.count((7, "Grace", False, 3.5)) == 2
        assert table.count((0, "O'Brien", True, None)) == 1
        for _key, _name, active, score in table:
            assert type(active) is bool
            assert score is None or type(score) is float
    extra = sqlite.catalog.table("Extra")
    assert extra == memory.catalog.table("Extra")
    assert [(row, type(row[3])) for row in extra] == [
        ((1, None, None, 2.0), float)
    ] * 2


@pytest.mark.parametrize(
    "row, error",
    [
        (("abc", "x", True, 1.0), TypeMismatchError),  # text in an INT column
        ((1, 5, True, 1.0), TypeMismatchError),  # SQLite would store '5'
        ((1, "x", True), ArityError),
        ((1, "x", True, 1.0, 2), ArityError),
    ],
    ids=["text-in-int", "int-in-string", "short", "long"],
)
def test_a_mistyped_load_is_refused_like_the_in_memory_source(row, error):
    """Adoption trusts what is stored, so every way in validates: the
    setup load and the rows a schema change carries, not only deltas."""
    extra = PERSON.renamed("Extra")
    loads = [
        lambda source: source.create_relation(extra, [ROWS[0], row]),
        lambda source: source.commit(CreateRelation(extra, (row,))),
        lambda source: source.commit(
            RestructureRelations(("Person",), extra, (ROWS[0], row))
        ),
    ]
    for load in loads:
        for source in twins():
            with pytest.raises(error):
                load(source)
