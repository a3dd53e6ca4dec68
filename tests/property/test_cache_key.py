"""The snapshot cache's key: ``(source, query.prepared)``, not SQL text.

Two probes share a cache entry exactly when the text key they used to be
filed under (``normalized_query_key``, kept in ``tests/bag_oracle.py``)
is equal — over int, float, bool, NULL and string values, and over empty
IN-lists.  A checkpoint carries the key as parseable SQL, and restoring
it files the entry under the same key again.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import SnapshotCache
from repro.relational.predicate import (
    Comparison,
    InPredicate,
    attr,
    conjunction,
)
from repro.relational.query import RelationRef, SPJQuery
from repro.relational.schema import RelationSchema
from repro.relational.table import Table
from repro.relational.types import AttributeType
from repro.sources.source import DataSource
from tests.bag_oracle import normalized_query_key

SCHEMA = RelationSchema.of(
    "R",
    [
        ("i", AttributeType.INT),
        ("f", AttributeType.FLOAT),
        ("b", AttributeType.BOOL),
        ("s", AttributeType.STRING),
    ],
)
#: each column's values; NULL lies in every domain (no ``-0.0``: it
#: equals ``0.0`` but renders apart, and no column stores it)
DOMAINS = {
    "i": st.sampled_from([None, -3, 0, 7]),
    "f": st.sampled_from([None, -2.5, 0.5, 1.0, 1000.25]),
    "b": st.sampled_from([None, True, False]),
    "s": st.sampled_from([None, "", "a", "o'hara", "x y"]),
}


@st.composite
def probes(draw):
    terms = []
    for column in draw(
        st.lists(st.sampled_from(sorted(DOMAINS)), max_size=3)
    ):
        domain = DOMAINS[column]
        if draw(st.integers(min_value=0, max_value=3)):
            terms.append(
                InPredicate(
                    attr("R", column), draw(st.frozensets(domain, max_size=3))
                )
            )
        else:
            terms.append(Comparison(attr("R", column), "=", draw(domain)))
    projection = draw(
        st.lists(st.sampled_from(sorted(DOMAINS)), min_size=1, max_size=2)
    )
    return SPJQuery(
        relations=(RelationRef("s", "R", "R"),),
        projection=tuple(attr("R", column) for column in projection),
        selection=conjunction(terms),
    )


@given(probes(), probes())
@settings(max_examples=500, deadline=None)
def test_prepared_keys_are_equal_iff_texts_are(first, second):
    same_text = normalized_query_key(first) == normalized_query_key(second)
    assert (first.prepared == second.prepared) == same_text
    if same_text:
        assert hash(first.prepared) == hash(second.prepared)


@given(probes())
@settings(max_examples=300, deadline=None)
def test_a_query_shares_its_key_with_its_rebinding(query):
    shape, parameters = query.prepared
    assert shape.bind(parameters).prepared == query.prepared


@given(st.lists(probes(), min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_checkpoint_export_then_restore_files_the_same_keys(queries):
    source = DataSource("s")
    source.create_relation(SCHEMA)
    cache = SnapshotCache()
    for query in queries:
        cache.store(source, query, Table(SCHEMA), version=0)
    exported = cache.export_entries()
    assert all(isinstance(key, str) for _source, key, _v, _t in exported)
    fresh = SnapshotCache()
    assert fresh.restore_entries(exported) == len(exported)
    assert list(fresh._entries) == list(cache._entries)
    for query in queries:
        assert fresh.serve(source, query) is not None
