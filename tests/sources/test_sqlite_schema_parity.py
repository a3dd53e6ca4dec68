"""Backend parity on broken-query detection after schema changes.

The Dyno anomaly detector reasons about broken queries purely from the
:class:`BrokenQueryError` contract; a backend that detects them
differently would skew detection.  For every ALTER-TABLE-backed schema
change path of :class:`SqliteDataSource` — drop attribute, rename
attribute, rename relation, drop relation — this module applies the
identical change to an in-memory :class:`DataSource` twin and asserts
both backends agree query-by-query: same answers where the query still
parses against the live schema, and :class:`BrokenQueryError` from both
(never just one) where it does not.

The whole module runs twice — on the shipped kernel and under
``tests/kernel_oracle.naive_kernel()`` — because the in-memory twin
answers through :func:`repro.relational.execute`: backend parity must
hold whichever evaluator answers.
"""

import pytest

from repro.relational.predicate import InPredicate, attr
from repro.relational.query import RelationRef, SPJQuery
from repro.relational.schema import RelationSchema
from repro.relational.types import AttributeType
from repro.sources.errors import BrokenQueryError
from repro.sources.messages import (
    AddAttribute,
    DataUpdate,
    DropAttribute,
    DropRelation,
    RenameAttribute,
    RenameRelation,
    RestructureRelations,
)
from repro.sources.source import DataSource
from repro.sources.sqlite_source import SqliteDataSource
from tests.kernel_oracle import MODES, kernel

ITEM = RelationSchema.of(
    "Item",
    [
        ("SID", AttributeType.INT),
        "Book",
        ("Price", AttributeType.FLOAT),
    ],
)
ROWS = [(1, "Databases", 50.0), (2, "Compilers", 40.0)]


@pytest.fixture(autouse=True, params=MODES)
def each_executor(request):
    """Run every parity test on the kernel and on the naive oracle."""
    with kernel(request.param):
        yield request.param


def twins():
    memory = DataSource("retailer")
    sqlite = SqliteDataSource("retailer")
    for source in (memory, sqlite):
        source.create_relation(ITEM, ROWS)
    return memory, sqlite


def query_over(relation: str, *attributes: str) -> SPJQuery:
    return SPJQuery(
        relations=(RelationRef("retailer", relation, "I"),),
        projection=tuple(attr("I", name) for name in attributes),
    )


def assert_parity(memory, sqlite, query):
    """Both backends answer identically or both flag the query broken."""
    try:
        expected = sorted(memory.execute(query).rows())
    except BrokenQueryError:
        with pytest.raises(BrokenQueryError):
            sqlite.execute(query)
        return None
    got = sorted(sqlite.execute(query).rows())
    assert got == expected
    return expected


PROBES = [
    query_over("Item", "Book", "Price"),
    query_over("Item", "Book"),
    query_over("Item", "Price"),
    query_over("Item", "SID"),
    query_over("Stock", "Book"),
]


def apply_both(memory, sqlite, update):
    committed = [memory.commit(update), sqlite.commit(update)]
    assert committed[0].payload == committed[1].payload


@pytest.mark.parametrize(
    "update",
    [
        DropAttribute("Item", "Price"),
        RenameAttribute("Item", "Price", "Cost"),
        RenameRelation("Item", "Stock"),
        DropRelation("Item"),
    ],
    ids=["drop-attr", "rename-attr", "rename-rel", "drop-rel"],
)
def test_broken_query_parity_after_schema_change(update):
    memory, sqlite = twins()
    for probe in PROBES:
        assert_parity(memory, sqlite, probe)  # pre-change agreement
    apply_both(memory, sqlite, update)
    answered = broken = 0
    for probe in PROBES:
        if assert_parity(memory, sqlite, probe) is None:
            broken += 1
        else:
            answered += 1
    # the change must actually split the probe set: some probes break,
    # the untouched ones keep answering (Section 3.1 — only referenced
    # schema elements break a query)
    assert broken > 0
    if not isinstance(update, DropRelation):
        assert answered > 0


def test_rename_attribute_answers_under_new_name():
    memory, sqlite = twins()
    apply_both(memory, sqlite, RenameAttribute("Item", "Price", "Cost"))
    probe = query_over("Item", "Book", "Cost")
    assert assert_parity(memory, sqlite, probe) == [
        ("Compilers", 40.0),
        ("Databases", 50.0),
    ]
    with pytest.raises(BrokenQueryError):
        memory.execute(query_over("Item", "Price"))
    with pytest.raises(BrokenQueryError):
        sqlite.execute(query_over("Item", "Price"))


def test_rename_relation_answers_under_new_name():
    memory, sqlite = twins()
    apply_both(memory, sqlite, RenameRelation("Item", "Stock"))
    probe = query_over("Stock", "Book", "Price")
    assert assert_parity(memory, sqlite, probe) == [
        ("Compilers", 40.0),
        ("Databases", 50.0),
    ]


def test_chained_changes_keep_parity():
    """A realistic SC burst: rename the relation, rename an attribute,
    then drop another — parity must hold at every intermediate step."""
    memory, sqlite = twins()
    steps = [
        RenameRelation("Item", "Stock"),
        RenameAttribute("Stock", "Price", "Cost"),
        DropAttribute("Stock", "SID"),
    ]
    probes = PROBES + [
        query_over("Stock", "Cost"),
        query_over("Stock", "Book", "Cost"),
        query_over("Stock", "SID"),
    ]
    for update in steps:
        apply_both(memory, sqlite, update)
        for probe in probes:
            assert_parity(memory, sqlite, probe)
    # end state: only Book and Cost survive, under the new names
    assert assert_parity(
        memory, sqlite, query_over("Stock", "Book", "Cost")
    ) == [("Compilers", 40.0), ("Databases", 50.0)]


def test_dropped_relation_breaks_identically():
    memory, sqlite = twins()
    apply_both(memory, sqlite, DropRelation("Item"))
    for probe in PROBES:
        with pytest.raises(BrokenQueryError):
            memory.execute(probe)
        with pytest.raises(BrokenQueryError):
            sqlite.execute(probe)


# ----------------------------------------------------------------------
# schema changes over lazily built indexes
# ----------------------------------------------------------------------
#
# The sqlite source indexes a column on its first probe.  SQLite refuses
# DROP COLUMN on an indexed column, so every schema change must take the
# relation's indexes (and the prepared records rendered for the old
# schema) down first; both come back with the next probe.


def probe_on(relation: str, column: str, *attributes: str) -> SPJQuery:
    return SPJQuery(
        relations=(RelationRef("retailer", relation, "I"),),
        projection=tuple(attr("I", name) for name in attributes),
        selection=InPredicate(attr("I", column), frozenset({40.0, 50.0})),
    )


def index_names(sqlite) -> set[str]:
    return {
        name
        for (name,) in sqlite._db.execute(
            "SELECT name FROM sqlite_master WHERE type = 'index'"
        )
    }


STOCK = RelationSchema.of("Stock", [("SID", AttributeType.INT), "Book"])

AFTER_PROBE = {
    "drop-attr": (DropAttribute("Item", "Price"), "Item", "SID"),
    "rename-attr": (RenameAttribute("Item", "Price", "Cost"), "Item", "Cost"),
    "rename-rel": (RenameRelation("Item", "Stock"), "Stock", "Price"),
    "add-attr": (
        AddAttribute("Item", ITEM.attribute("Book").renamed("Note")),
        "Item",
        "Price",
    ),
    "drop-rel": (DropRelation("Item"), None, None),
    "restructure": (
        RestructureRelations(("Item",), STOCK, ((1, "Databases"),)),
        "Stock",
        "SID",
    ),
}


@pytest.mark.parametrize("kind", AFTER_PROBE)
def test_schema_change_applies_after_a_probe_built_an_index(kind):
    update, relation, column = AFTER_PROBE[kind]
    memory, sqlite = twins()
    stale = probe_on("Item", "Price", "Book", "Price")
    assert assert_parity(memory, sqlite, stale) is not None
    assert index_names(sqlite) == {"Item.Price"}

    apply_both(memory, sqlite, update)  # no UpdateApplicationError
    assert index_names(sqlite) == set()
    assert sqlite._statements == {}

    if not isinstance(update, AddAttribute):  # the old probe is broken
        with pytest.raises(BrokenQueryError) as from_memory:
            memory.execute(stale)
        with pytest.raises(BrokenQueryError) as from_sqlite:
            sqlite.execute(stale)
        assert from_sqlite.value.reason == from_memory.value.reason
    if relation is not None:  # and a probe of the new schema answers
        fresh = probe_on(relation, column, "Book", column)
        assert assert_parity(memory, sqlite, fresh) is not None
        assert index_names(sqlite) == {f"{relation}.{column}"}


def test_indexes_follow_data_updates():
    """An index is SQLite's to keep: rows committed after it was built
    are found through it, deleted ones are not."""
    memory, sqlite = twins()
    probe = probe_on("Item", "Price", "Book", "Price")
    assert_parity(memory, sqlite, probe)
    apply_both(memory, sqlite, DataUpdate.insert(ITEM, [(3, "Datalog", 40.0)]))
    apply_both(memory, sqlite, DataUpdate.delete(ITEM, [ROWS[0]]))
    assert assert_parity(memory, sqlite, probe) == [
        ("Compilers", 40.0),
        ("Datalog", 40.0),
    ]
