"""Checkpoint stores.

A checkpoint is a single JSON document capturing everything the
warehouse owns: view definitions and extents, the resolved-unit history
(installed and skipped), the local-store entries with their version
stamps, and — crucially — ``journal_seq``, the last journal sequence
number the checkpoint subsumes (the queue itself is not stored: what is
unresolved in the surviving source logs *is* the queue, and recovery
re-enqueues it).  Recovery loads the latest checkpoint and replays
only journal entries with ``seq > journal_seq``, which is what makes
replay idempotent when a crash lands anywhere inside the
save → truncate window.

Stores are pluggable like journal sinks: in-memory for tests, an
atomically-replaced JSON file for real durability.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Protocol


class CheckpointStore(Protocol):
    def save(self, state: dict) -> int:
        """Persist the checkpoint; returns the bytes written."""
        ...

    def load(self) -> dict | None:
        """The latest checkpoint, or None if none was ever taken."""
        ...


class MemoryCheckpointStore:
    """In-memory store; round-trips through JSON for strict isolation
    (a recovered run must not alias live Table objects)."""

    def __init__(self) -> None:
        self._state: str | None = None

    def save(self, state: dict) -> int:
        encoded = json.dumps(state, separators=(",", ":"), sort_keys=True)
        self._state = encoded
        return len(encoded.encode("utf-8"))

    def load(self) -> dict | None:
        if self._state is None:
            return None
        return json.loads(self._state)


class FileCheckpointStore:
    """Atomic single-file store: write to a temp file, then rename."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def save(self, state: dict) -> int:
        encoded = json.dumps(state, separators=(",", ":"), sort_keys=True)
        data = encoded.encode("utf-8")
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        return len(data)

    def load(self) -> dict | None:
        if not self.path.exists():
            return None
        text = self.path.read_text(encoding="utf-8")
        if not text.strip():
            return None
        return json.loads(text)
