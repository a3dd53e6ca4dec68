"""The key-range delete's displaced scan, kept as its specification.

``in_key_range`` is how ``repro.sources.source.DataSource`` found a
key-range delete's candidates before it kept them: one pass over the
relation on every delete, listing the distinct rows whose first
attribute lies in the closed range (a NULL key lies in none), in the
table's first-occurrence order.  ``tests/sources/
test_key_range_candidates.py`` holds the kept candidates, and the
sqlite twin's ``ORDER BY MIN(rowid)``, equal to it after every commit.
"""

from __future__ import annotations

from repro.relational.delta import Row
from repro.relational.table import Table


def in_key_range(table: Table, key_range: tuple) -> list[Row]:
    lo, hi = key_range
    return [
        row
        for row, _count in table.items()
        if (key := row[0]) is not None and lo <= key <= hi
    ]
