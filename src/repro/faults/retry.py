"""Retry policy: exponential backoff with deterministic jitter.

When a maintenance query fails transiently the engine retries it under a
:class:`RetryPolicy`: each failed attempt is followed by a backoff sleep
(charged to the virtual clock, so experiment timings honestly include
retry cost), growing exponentially up to a cap, with a deterministic
jitter so that co-failing queries do not retry in lockstep yet every run
remains exactly reproducible.

Exhaustion — too many attempts, or the per-query deadline blown — raises
:class:`~repro.sources.errors.SourceUnavailableError`, which the Dyno
scheduler answers by *quarantining* the source (see
:mod:`repro.core.scheduler`) rather than flagging a broken query.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff/deadline knobs for transient maintenance-query failures."""

    #: total attempts per query (1 = no retries)
    max_attempts: int = 4
    #: backoff after the first failure (virtual seconds)
    base_backoff: float = 0.05
    #: growth factor per successive failure
    multiplier: float = 2.0
    #: backoff ceiling
    max_backoff: float = 2.0
    #: fraction of each backoff randomized away (0 disables jitter)
    jitter: float = 0.25
    #: per-query budget across attempts and backoffs; 0 disables
    deadline: float = 10.0
    #: how long an exhausted source rests in quarantine when no
    #: recovery hint is available
    quarantine_probe: float = 2.0
    #: jitter seed; same seed -> same backoff sequence
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def backoff(self, failures: int, salt: str = "") -> float:
        """Sleep after the ``failures``-th consecutive failure (1-based).

        Deterministic: jitter is drawn from a generator seeded with
        ``(seed, salt, failures)`` rendered as a string (string seeding
        is stable across processes, unlike tuple hashing).
        """
        if failures < 1:
            raise ValueError("failures must be >= 1")
        raw = min(
            self.max_backoff,
            self.base_backoff * self.multiplier ** (failures - 1),
        )
        if self.jitter == 0.0:
            return raw
        rng = random.Random(f"{self.seed}:{salt}:{failures}")
        return raw * (1.0 - self.jitter * rng.random())
