"""Errors raised by the source layer."""

from __future__ import annotations

from ..relational.errors import ReproError


class SourceError(ReproError):
    """Base class for data-source failures."""


class BrokenQueryError(SourceError):
    """A maintenance query referenced metadata the source no longer has.

    This is the *broken query anomaly* of Definition 2: the query was
    constructed from outdated schema knowledge and a concurrent schema
    change committed before the query was answered.  The query engine's
    in-exec detection mechanism (Figure 7) catches this exception and
    raises the ``BrokenQueryFlag``.
    """

    def __init__(self, source: str, query_sql: str, reason: str) -> None:
        self.source = source
        self.query_sql = query_sql
        self.reason = reason
        super().__init__(
            f"broken query at source {source!r}: {reason} "
            f"(query: {query_sql})"
        )


class UpdateApplicationError(SourceError):
    """A source update could not be applied to the local catalog."""


class ProbeArityError(SourceError):
    """A query's IN-lists bind more values than the source's SQL engine
    takes in one statement (``arity`` counts the values, not the
    placeholders their bucket pads them to).  Neither transient nor
    broken: the same query fails the same way until the engine's limit
    is raised, so nothing retries or reorders around it — it ends the
    run."""

    def __init__(self, source: str, arity: int, limit: int) -> None:
        self.source = source
        self.arity = arity
        self.limit = limit
        super().__init__(
            f"query at source {source!r} binds {arity} IN-list values; "
            f"the engine's limit is {limit}"
        )


class TransientSourceError(SourceError):
    """A maintenance query failed for a *transient* reason.

    Unlike :class:`BrokenQueryError` — which means the query itself is
    invalid against the source's current schema and retrying is useless —
    a transient failure (network hiccup, source restart, lost reply)
    says nothing about the query's validity.  The correct reaction is to
    retry with backoff, and, on exhausted retries, to quarantine the
    source; reporting it as an in-exec broken-query flag would fabricate
    an unsafe dependency (Thm. 1) and trigger a spurious abort/reorder.

    ``retry_at`` optionally carries the virtual time at which the source
    is expected to answer again (known for declared crash windows); the
    scheduler uses it to bound quarantines exactly.
    """

    def __init__(
        self, source: str, reason: str, retry_at: float | None = None
    ) -> None:
        self.source = source
        self.reason = reason
        self.retry_at = retry_at
        super().__init__(
            f"transient failure at source {source!r}: {reason}"
        )


class QueryTimeoutError(TransientSourceError):
    """A maintenance query timed out in flight.

    ``elapsed`` is the virtual time the view manager waited before
    giving up on this attempt; the engine charges it to the clock so
    timeouts are not free.
    """

    def __init__(
        self,
        source: str,
        reason: str,
        elapsed: float = 0.0,
        retry_at: float | None = None,
    ) -> None:
        self.elapsed = elapsed
        super().__init__(source, reason, retry_at)


class SourceUnavailableError(SourceError):
    """Retries against a source were exhausted without an answer.

    Raised by the engine's retry loop after ``RetryPolicy.max_attempts``
    consecutive transient failures (or a blown per-query deadline).  The
    scheduler reacts by quarantining the source and deferring dependent
    maintenance — never by raising the broken-query flag.
    """

    def __init__(
        self,
        source: str,
        attempts: int,
        reason: str,
        last_error: TransientSourceError | None = None,
    ) -> None:
        self.source = source
        self.attempts = attempts
        self.reason = reason
        self.last_error = last_error
        self.retry_at = (
            last_error.retry_at if last_error is not None else None
        )
        super().__init__(
            f"source {source!r} unavailable after {attempts} "
            f"attempt(s): {reason}"
        )
