"""In-memory vs SQLite sources: identical observable behaviour.

Whatever sequence of updates a source commits, both backends must end in
the same extent and answer the same maintenance queries identically —
the backend-independence claim behind the paper's "general strategy ...
independent of any data model".
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.predicate import InPredicate, attr
from repro.relational.query import RelationRef, SPJQuery
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.types import AttributeType
from repro.sources.messages import (
    AddAttribute,
    DataUpdate,
    DropAttribute,
    RenameAttribute,
    RenameRelation,
)
from repro.sources.source import DataSource
from repro.sources.sqlite_source import SqliteDataSource

SCHEMA = RelationSchema.of(
    "R",
    [("k", AttributeType.INT), ("v", AttributeType.STRING)],
)

KEYS = st.integers(min_value=0, max_value=5)
TEXTS = st.sampled_from(["a", "b", "c"])


@st.composite
def update_scripts(draw):
    """A list of update operations expressed backend-independently.

    ``probe`` actions interleave with the updates: a probe is what makes
    the sqlite source build an index, and every later schema change has
    to get past it.
    """
    script = []
    live_rows: list = []
    #: (attribute name, the strategy its non-null values come from)
    columns = [("k", KEYS), ("v", TEXTS)]
    added = 0
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        kind = draw(
            st.sampled_from(
                [
                    "insert",
                    "delete",
                    "rename_attr",
                    "add_attr",
                    "drop_attr",
                    "probe",
                ]
            )
        )
        if kind == "insert":
            row = tuple(draw(values) for _name, values in columns)
            script.append(("insert", row))
            live_rows.append(row)
        elif kind == "delete" and live_rows:
            index = draw(
                st.integers(min_value=0, max_value=len(live_rows) - 1)
            )
            script.append(("delete", live_rows.pop(index)))
        elif kind == "rename_attr":
            index = draw(st.integers(0, len(columns) - 1))
            old, values = columns[index]
            new = f"{old}x"
            if any(name == new for name, _values in columns):
                continue
            columns[index] = (new, values)
            script.append(("rename_attr", (old, new)))
        elif kind == "add_attr":
            added += 1
            name = f"extra{added}"
            columns.append((name, TEXTS))
            live_rows = [row + (None,) for row in live_rows]
            script.append(("add_attr", name))
        elif kind == "drop_attr" and len(columns) > 1:
            index = draw(st.integers(0, len(columns) - 1))
            name, _values = columns.pop(index)
            live_rows = [row[:index] + row[index + 1 :] for row in live_rows]
            script.append(("drop_attr", name))
        elif kind == "probe":
            name, values = draw(st.sampled_from(columns))
            wanted = draw(st.frozensets(values, max_size=3))
            script.append(("probe", (name, wanted)))
    return script


def probe_query(schema, attribute, values) -> SPJQuery:
    return SPJQuery(
        relations=(RelationRef("s", "R", "R"),),
        projection=tuple(
            attr("R", name) for name in schema.attribute_names
        ),
        selection=InPredicate(attr("R", attribute), frozenset(values)),
    )


def replay(source, script) -> list:
    """Apply a script; returns what its probes answered, in order."""
    answers = []
    for action, payload in script:
        schema = source.schema_of("R")
        if action == "insert":
            source.commit(DataUpdate.insert(schema, [payload]))
        elif action == "delete":
            source.commit(DataUpdate.delete(schema, [payload]))
        elif action == "rename_attr":
            old, new = payload
            source.commit(RenameAttribute("R", old, new))
        elif action == "add_attr":
            source.commit(
                AddAttribute("R", Attribute(payload, AttributeType.STRING))
            )
        elif action == "drop_attr":
            source.commit(DropAttribute("R", payload))
        elif action == "probe":
            answer = source.execute(probe_query(schema, *payload))
            answers.append(sorted(answer.rows(), key=repr))
    return answers


@given(update_scripts())
@settings(max_examples=50, deadline=None)
def test_extents_identical(script):
    memory = DataSource("s")
    memory.create_relation(SCHEMA, [(1, "a"), (2, "b")])
    sqlite = SqliteDataSource("s")
    sqlite.create_relation(SCHEMA, [(1, "a"), (2, "b")])

    assert replay(memory, script) == replay(sqlite, script)

    assert memory.schema_of("R").attribute_names == (
        sqlite.schema_of("R").attribute_names
    )
    assert memory.catalog.table("R") == sqlite.catalog.table("R")


@given(update_scripts(), st.sets(st.integers(min_value=0, max_value=5)))
@settings(max_examples=50, deadline=None)
def test_probe_answers_identical(script, probe_values):
    memory = DataSource("s")
    memory.create_relation(SCHEMA, [(1, "a"), (2, "b"), (3, "c")])
    sqlite = SqliteDataSource("s")
    sqlite.create_relation(SCHEMA, [(1, "a"), (2, "b"), (3, "c")])
    assert replay(memory, script) == replay(sqlite, script)

    schema = memory.schema_of("R")
    query = probe_query(schema, schema.attribute_names[0], probe_values)
    assert memory.execute(query) == sqlite.execute(query)


def test_rename_relation_equivalence():
    memory = DataSource("s")
    memory.create_relation(SCHEMA, [(1, "a")])
    sqlite = SqliteDataSource("s")
    sqlite.create_relation(SCHEMA, [(1, "a")])
    for source in (memory, sqlite):
        source.commit(RenameRelation("R", "R2"))
        source.commit(DropAttribute("R2", "v"))
    assert memory.catalog.table("R2") == sqlite.catalog.table("R2")
    assert memory.schema_of("R2").attribute_names == ("k",)
    assert sqlite.schema_of("R2").attribute_names == ("k",)
