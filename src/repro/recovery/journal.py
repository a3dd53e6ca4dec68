"""Write-ahead maintenance journal.

The :class:`MaintenanceJournal` registers as a UMQ mutation listener
(the PR 2 listener protocol) so every queue mutation — receive,
head/unit removal, front requeue, reorder/batch merge — lands in the
journal, and the managers call :meth:`record_install` *before* applying
a unit's effects to any extent (write-ahead rule) and
:meth:`record_skip` when a policy drops a unit.

Entries carry a monotone ``seq`` number that is never reset — not by
checkpoint truncation and not by recovery (the successor journal
continues from ``start_seq``).  Checkpoints remember the last journaled
``seq``; replay applies only entries newer than that, which makes replay
idempotent: a crash landing between checkpoint save and journal
truncation merely leaves stale entries that the seq filter skips.

Install and skip entries carry only what replay reads: the unit's
``refs`` and, for an install, its per-view ``effects``.  Replay derives
the committed-update watermark from the resolved refs
(:func:`~repro.recovery.recover.recover`); no entry stores one.

Sinks are pluggable: :class:`MemoryJournalSink` for tests,
:class:`FileJournalSink` (append-only JSONL) for real durability.
Every append is charged to the cost model as *busy time only* — journal
writes never advance the virtual clock, so an armed journal does not
perturb the maintenance timeline it protects.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Protocol

from .codec import Ref, effect_to_json, refs_of


def _encode(entry: dict) -> str:
    return json.dumps(entry, separators=(",", ":"), sort_keys=True)


class JournalSink(Protocol):
    """Append-only storage for journal entries."""

    def append(self, entry: dict) -> int:
        """Persist one entry; returns the bytes written."""
        ...

    def entries(self) -> list[dict]:
        """All entries currently retained, in append order."""
        ...

    def truncate(self) -> None:
        """Drop all retained entries (called at checkpoint)."""
        ...


class MemoryJournalSink:
    """In-memory sink for tests; still accounts bytes like the file."""

    def __init__(self) -> None:
        self._entries: list[dict] = []

    def append(self, entry: dict) -> int:
        self._entries.append(entry)
        return len(_encode(entry).encode("utf-8")) + 1  # +1 newline

    def entries(self) -> list[dict]:
        return list(self._entries)

    def truncate(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class FileJournalSink:
    """Append-only JSONL file, fsync'd per entry for real durability."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if not self.path.exists():
            self.path.touch()

    def append(self, entry: dict) -> int:
        line = _encode(entry) + "\n"
        data = line.encode("utf-8")
        with open(self.path, "ab") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        return len(data)

    def entries(self) -> list[dict]:
        out = []
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    out.append(json.loads(line))
        return out

    def truncate(self) -> None:
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_bytes(b"")
        os.replace(tmp, self.path)

    def __len__(self) -> int:
        return len(self.entries())


class MaintenanceJournal:
    """UMQ listener + install recorder writing through a sink.

    ``installed_units`` / ``skipped_units`` are the owning harness's
    resolved-unit history across every epoch; each install and skip
    appends its unit's refs there once its entry is written.
    """

    def __init__(
        self,
        sink: JournalSink,
        engine,
        installed_units: list[list[Ref]],
        skipped_units: list[list[Ref]],
        start_seq: int = 1,
    ):
        self.sink = sink
        self.engine = engine
        self.last_seq = start_seq - 1
        self.installed_units = installed_units
        self.skipped_units = skipped_units

    def _write(self, entry: dict) -> None:
        self.last_seq += 1
        entry["seq"] = self.last_seq
        written = self.sink.append(entry)
        metrics = self.engine.metrics
        metrics.journal_entries += 1
        metrics.journal_bytes += written
        # Busy time only: journalling must not move the virtual clock,
        # or an armed journal would change the maintenance timeline.
        metrics.charge(
            "journal", self.engine.cost_model.journal_append(written)
        )

    def record_install(self, unit, outcomes) -> None:
        """WAL entry for a unit install — written *before* any apply."""
        self._write(
            {
                "kind": "install",
                "refs": refs_of(unit),
                "effects": [effect_to_json(outcome) for outcome in outcomes],
            }
        )
        self.installed_units.append(
            [(message.source, message.seqno) for message in unit]
        )

    def record_skip(self, unit) -> None:
        """A policy dropped the unit (SKIP); resolves it like an install."""
        self._write({"kind": "skip", "refs": refs_of(unit)})
        self.skipped_units.append(
            [(message.source, message.seqno) for message in unit]
        )

    # ------------------------------------------------------------------
    # UMQ listener protocol (PR 2)
    # ------------------------------------------------------------------

    def umq_received(self, message) -> None:
        self._write(
            {"kind": "receive", "ref": [message.source, message.seqno]}
        )

    def umq_removed_head(self, unit) -> None:
        self._write({"kind": "remove", "refs": refs_of(unit)})

    def umq_removed_unit(self, unit, index: int) -> None:
        self._write(
            {"kind": "remove", "refs": refs_of(unit), "index": index}
        )

    def umq_requeued_front(self, unit) -> None:
        self._write({"kind": "requeue", "refs": refs_of(unit)})

    def umq_reordered(self, units) -> None:
        self._write(
            {"kind": "reorder", "units": [refs_of(unit) for unit in units]}
        )
