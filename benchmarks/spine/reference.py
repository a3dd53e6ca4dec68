"""A reference loop that tells how fast the box is running right now.

This box is a slice of a shared host: the *same* child on the *same*
inputs takes 0.7 s in one second and 1.0 s in the next, in CPU time as
much as in wall time, because the host's other tenants slow the core
down for seconds at a stretch.  A median over a handful of repeats jumps
between those two states; no statistic over raw seconds steadies it.

So the timed phases carry a yardstick.  A ``SIGALRM`` timer fires every
``EVERY_S`` wall seconds inside the phase; its handler runs a fixed
piece of interpreter work and notes the thread CPU time that took.  The
phase's CPU seconds are then scaled by the mean of ``REFERENCE_S /
sample``: they read as seconds on the sizing box *undisturbed*, whatever
the host did meanwhile.  The handler's own time is subtracted from the
phase.  Nothing in the program is touched; Python retries interrupted
system calls by itself, and forked workers inherit neither timer nor
samples.
"""

from __future__ import annotations

import signal
import time

#: thread CPU seconds one reference loop takes on the sizing box (commit
#: e1c4753, 2-vCPU shared VM, Python 3.11) in its undisturbed state: the
#: 5th percentile of 8800 samples taken between bursts of dictionary work
#: (the fastest tenth of the samples taken inside maintain phases agrees)
REFERENCE_S = 0.00034
#: wall seconds between two samples
EVERY_S = 0.025
_LOOPS = 8000
_TABLE = list(range(1024))


def _loop() -> int:
    # Ints only: nothing here is tracked by the garbage collector, so a
    # sample never pays for collecting the program's garbage.
    table, total = _TABLE, 0
    for i in range(_LOOPS):
        total += table[i & 1023] ^ i
    return total


class Reference:
    """Samples the box's speed from inside whatever the main thread runs."""

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._inside_wall = 0.0
        self._inside_cpu = 0.0
        self._previous = None

    def _tick(self, signum=None, frame=None) -> None:
        wall, cpu = time.perf_counter(), time.thread_time()
        _loop()
        took = time.thread_time() - cpu
        self._samples.append(took)
        self._inside_cpu += took
        self._inside_wall += time.perf_counter() - wall

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def take(self) -> dict:
        """What was sampled since the last ``take``; at least one sample.

        ``speed`` is the box's speed over the phase as a share of the
        sizing box's (below 1: slowed down); ``wall_s`` and ``cpu_s``
        are the handler's own time, to be taken off the phase."""
        self._tick()
        samples = self._samples
        taken = {
            "speed": sum(REFERENCE_S / sample for sample in samples)
            / len(samples),
            "samples": len(samples),
            "wall_s": self._inside_wall,
            "cpu_s": self._inside_cpu,
        }
        self._samples = []
        self._inside_wall = self._inside_cpu = 0.0
        return taken


def undisturbed(wall_s: float, cpu_s: float, speed: float) -> tuple[float, float]:
    """A phase's wall and CPU seconds as the undisturbed box would read.

    Only the part of the wall time the processes spent computing follows
    the box's speed; waiting (an ``fsync``) does not.  Where workers ran
    beside the driver, CPU exceeds wall and all of the wall is compute."""
    waited = max(0.0, wall_s - cpu_s)
    return waited + (wall_s - waited) * speed, cpu_s * speed
