"""Typed execution traces.

A :class:`Tracer` records what happened during a simulated run as typed
events — source commits, maintenance queries, aborts, corrections, view
refreshes — each stamped with virtual time.  Traces power debugging,
the timeline views in examples, and assertions in tests that need to
inspect *when* things happened rather than just aggregate metrics.

Tracing is off by default (`SimEngine(trace=False)`): recording is a
no-op then, so the hot path pays a single boolean check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator


@dataclass(frozen=True)
class TraceEvent:
    """One recorded occurrence."""

    at: float
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.at:12.3f}] {self.kind:<12} {self.detail}"


#: event kinds recorded by the engine and scheduler
COMMIT = "commit"
QUERY = "query"
BROKEN = "broken"
ABORT = "abort"
CORRECTION = "correction"
REFRESH = "refresh"
FAULT = "fault"
RETRY = "retry"
QUARANTINE = "quarantine"
RESUME = "resume"
BATCH = "batch"


@dataclass
class Tracer:
    """An append-only, optionally disabled event log."""

    enabled: bool = False
    events: list[TraceEvent] = field(default_factory=list)

    def record(self, at: float, kind: str, detail: str) -> None:
        if self.enabled:
            self.events.append(TraceEvent(at, kind, detail))

    def of_kind(self, kind: str) -> list[TraceEvent]:
        return [event for event in self.events if event.kind == kind]

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def timeline(self, limit: int | None = None) -> str:
        """A printable chronological view (last ``limit`` events)."""
        events = self.events if limit is None else self.events[-limit:]
        return "\n".join(str(event) for event in events)

    def clear(self) -> None:
        self.events.clear()
