"""Shared row pool: tuple interning for the hot maintenance paths.

Bag semantics means the same distinct row is handled *many* times — it
recurs across deltas, maintenance-query answers, snapshot-cache entries,
journal replays and shard replicas.  Every one of those paths keys a
dict or Counter by the row tuple, and CPython's dict lookup compares
candidate keys by identity *before* falling back to ``__eq__``; when two
equal rows are the same object the O(arity) tuple comparison never runs.
Interning makes that the common case: :func:`intern_row` maps every row
flowing through :meth:`Table.insert <repro.relational.table.Table>` and
:meth:`Delta.add <repro.relational.delta.Delta.add>` to one canonical
tuple object.

Two safety properties:

* **Type faithfulness.**  Python considers ``1 == 1.0 == True``, so a
  naive pool would silently replace a FLOAT column's ``1.0`` with an
  INT column's ``1`` (or a BOOL's ``True``) — corrupting values that
  the sqlite backend round-trips by type.  A pooled twin is only
  substituted when every element matches by identity or exact type.
* **Bounded memory.**  The pool is capacity-bounded; when full it is
  reset rather than grown (interning is an optimization, never a
  correctness dependency — tuples cannot be weakly referenced, so a
  WeakValueDictionary is not an option).
"""

from __future__ import annotations

#: upper bound on resident canonical rows before the pool resets
DEFAULT_POOL_CAPACITY = 1 << 20

_pool: dict[tuple, tuple] = {}
_capacity = DEFAULT_POOL_CAPACITY
_enabled = True

#: monotone counters for benchmarks/diagnostics (never reset by a pool
#: reset, only by :func:`clear_pool`)
_stats = {"hits": 0, "misses": 0, "type_conflicts": 0, "resets": 0}


def intern_row(row: tuple) -> tuple:
    """Return the canonical pooled twin of ``row`` (or ``row`` itself).

    The returned tuple is ``==`` to the argument and element-wise
    type-identical; callers may freely substitute it for the original.
    """
    if not _enabled:
        return row
    cached = _pool.get(row)
    if cached is not None:
        if cached is row:
            _stats["hits"] += 1
            return row
        for ours, theirs in zip(cached, row):
            if ours is not theirs and type(ours) is not type(theirs):
                # An equal-but-differently-typed twin (1 vs 1.0 vs
                # True): sharing would rewrite the value's type.
                _stats["type_conflicts"] += 1
                return row
        _stats["hits"] += 1
        return cached
    if len(_pool) >= _capacity:
        _pool.clear()
        _stats["resets"] += 1
    _pool[row] = row
    _stats["misses"] += 1
    return row


def validated_row(attributes, row: tuple) -> tuple:
    """``row`` as a table over ``attributes`` stores it: every value
    validated and coerced for its attribute's type (raising
    :class:`~repro.relational.errors.TypeMismatchError`), the tuple
    interned.  The caller has checked the arity."""
    return intern_row(
        tuple(
            attribute.type.validate(value)
            for attribute, value in zip(attributes, row)
        )
    )


def set_interning(enabled: bool) -> None:
    """Globally enable/disable the pool (tests and micro-benchmarks)."""
    global _enabled
    _enabled = enabled


def interning_enabled() -> bool:
    return _enabled


def set_pool_capacity(capacity: int) -> None:
    global _capacity
    _capacity = max(1, capacity)


def clear_pool() -> None:
    """Drop every pooled row and zero the counters."""
    _pool.clear()
    for key in _stats:
        _stats[key] = 0


def pool_size() -> int:
    return len(_pool)


def pool_stats() -> dict[str, int]:
    """Snapshot of the hit/miss/conflict/reset counters."""
    return dict(_stats)
