"""Process-parallel shard runtime (multi-core warehouse execution).

:class:`~repro.core.sharding.ShardedWarehouse` executes every shard
world in ONE Python process: the virtual clocks interleave but the wall
clock pays for every shard serially.  This module is the same
:class:`~repro.core.sharding.ShardCoordinator` over a different
transport — pipes to OS worker processes that own the shard worlds:

* each worker **rebuilds its shard worlds deterministically** by
  calling the ``build_world`` it was handed on each picklable world
  spec — the very function and specs the caller uses to build the same
  worlds inline, so they are identical by construction — and schedules
  identically-seeded workload copies from
  :class:`~repro.core.sharding.WorkloadSpec` parameters (workload
  *objects* hold mutable RNGs and are rebuilt fresh, never shipped).
  Builder and workload factories are module-level callables, pickled
  by reference under ``fork`` and ``spawn`` alike, so this module knows
  nothing about what a world is made of;
* a coordinator round travels as ``(command, shard id)`` messages —
  ``STEP``, ``BARRIER_HOLD`` / ``BARRIER_RELEASE``, ``FINISH``,
  ``COLLECT`` — each handed to
  :func:`~repro.core.sharding.execute_command` in the worker and
  answered with what it returns; a worker's shards step concurrently
  with every other worker's.  ``CRASH`` and ``SHUTDOWN`` address the
  worker process itself, not a shard;
* at quiescence ``COLLECT`` ships each shard's state record home —
  extents, committed refs, metrics, the per-shard
  :class:`~repro.sim.engine.InstallRecord` log for the read front end,
  its virtual clock — and the fleet shuts down; the coordinator's
  accessors then answer from the records.

**Determinism / bit-identity argument.**  Shard worlds are fully
independent (each owns its engine, sources, UMQ, caches, plan cache and
journal; the router filters only *delivery* into the local UMQ), so a
shard's trace — extent, committed set, install log, virtual clock —
depends only on the sequence of commands it is sent, never on when
peers execute theirs.  Policy, loop and command interpreter are the inline
warehouse's own, so that sequence is the same and every per-shard
result *and* counter is identical, the plan cache's counts included.

Crashed *schedulers* (seeded :class:`~repro.recovery.crash.CrashPlan`)
recover inside the worker from the shard's own journal, exactly as
inline.  A dead worker *process* is a different failure: the
coordinator detects the closed pipe, terminates the fleet and raises a
clean ``RuntimeError`` instead of hanging.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable

from .sharding import (
    Shard,
    ShardCoordinator,
    ShardRouter,
    ShardStatus,
    WorkloadSpec,
    execute_command,
    status_of,
)

#: builds one shard world from its spec, registering its views with the
#: given router; a spec is any picklable object with ``shard_id`` and
#: ``view_names``
WorldBuilder = Callable[[Any, ShardRouter], Shard]

#: worker exit code after a ``CRASH`` command (hard process death)
_CRASH_EXIT_CODE = 23


# ----------------------------------------------------------------------
# the worker side
# ----------------------------------------------------------------------


def _worker_main(
    conn,
    build_world: WorldBuilder,
    specs: list,
    workloads: list[WorkloadSpec],
) -> None:
    """One worker process: build assigned shard worlds, serve commands.

    Every shard command is answered with exactly one reply (FIFO per
    pipe), so the parent can batch a whole coordinator round per worker
    and read the replies back in order.
    """
    try:
        shards: dict[int, Shard] = {}
        ready: dict[int, tuple[dict, ShardStatus]] = {}
        for spec in specs:
            # A worker-local router holding only this shard behaves
            # exactly like the shared inline one for the shard itself:
            # a delivery filter reads only its own shard's footprints.
            shard = build_world(spec, ShardRouter())
            for workload in workloads:
                shard.engine.schedule_workload(workload.build())
            shards[spec.shard_id] = shard
            ready[spec.shard_id] = (shard.initial_sizes, status_of(shard))
        conn.send(("READY", ready))
        while True:
            command = conn.recv()
            op = command[0]
            if op == "SHUTDOWN":
                return
            if op == "CRASH":
                # Hard process death (chaos hook / death-path tests):
                # no reply, no cleanup — the parent must detect the
                # closed pipe and fail cleanly.
                os._exit(_CRASH_EXIT_CODE)
            shard_id = command[1]
            answer = execute_command(shards[shard_id], op)
            conn.send(("DONE", shard_id, answer))
    except (EOFError, KeyboardInterrupt):  # parent went away
        return
    except BaseException:
        try:
            conn.send(("ERROR", None, traceback.format_exc()))
        except OSError:
            pass
        raise


# ----------------------------------------------------------------------
# the parent side
# ----------------------------------------------------------------------


class WorkerDied(RuntimeError):
    """A shard worker process died mid-protocol (pipe closed)."""


@dataclass
class _Worker:
    index: int
    process: Any
    conn: Any
    shard_ids: tuple[int, ...]
    #: replies owed for the current round, in send order
    pending: int = 0


class ProcessShardRuntime(ShardCoordinator):
    """The coordinator over pipes to worker processes.

    Bulk-synchronous: each round's command batch goes out to every
    worker, which execute their shards' commands concurrently, and the
    round ends when every reply is in.  ``processes`` workers host
    ``len(specs)`` shards round-robin; ``processes`` is clamped to the
    shard count.

    The runtime is single-shot: :meth:`run` drives to quiescence,
    collects every shard's state and shuts the fleet down.
    """

    def __init__(
        self,
        specs: list,
        build_world: WorldBuilder,
        processes: int,
        reply_timeout: float = 600.0,
        kill_shard_after: tuple[int, int] | None = None,
    ) -> None:
        if not specs:
            raise ValueError("ProcessShardRuntime needs at least one shard")
        if processes < 1:
            raise ValueError(f"need at least one process, got {processes}")
        self.specs = sorted(specs, key=lambda spec: spec.shard_id)
        self.shard_ids = tuple(spec.shard_id for spec in self.specs)
        self.build_world = build_world
        self.processes = min(processes, len(self.specs))
        self.reply_timeout = reply_timeout
        #: test/chaos knob: ``(shard_id, round_index)`` — at the start
        #: of that coordinator round the shard's worker is sent CRASH
        #: (hard ``os._exit``) ahead of its commands
        self.kill_shard_after = kill_shard_after
        self._workers: list[_Worker] = []
        self._worker_of: dict[int, _Worker] = {}
        self._workloads: list[WorkloadSpec] = []
        self._statuses = {}
        self._initial_sizes = {}
        self._launched = False
        self._finished = False
        self.rounds = 0
        #: wall-clock phase timings (``prepare`` = process launch +
        #: world builds, ``execute`` = coordinator rounds + FINISH,
        #: ``collect`` = state shipping)
        self.timings: dict[str, float] = {}

    def add_workload_spec(self, workload: WorkloadSpec) -> None:
        """Queue one workload; every shard world replays its own
        identically-seeded copy (the sharded-warehouse contract)."""
        if self._launched:
            raise RuntimeError(
                "workloads must be added before the runtime launches"
            )
        self._workloads.append(workload)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def prepare(self) -> None:
        """Launch the fleet and build every shard world (not timed as
        execution: world construction happens once either way)."""
        if self._launched:
            return
        started = time.perf_counter()
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else methods[0]
        )
        assignments: list[list] = [
            [] for _ in range(self.processes)
        ]
        for index, spec in enumerate(self.specs):
            assignments[index % self.processes].append(spec)
        for index, assigned in enumerate(assignments):
            parent_conn, child_conn = context.Pipe(duplex=True)
            process = context.Process(
                target=_worker_main,
                args=(
                    child_conn,
                    self.build_world,
                    assigned,
                    self._workloads,
                ),
                name=f"shard-worker-{index}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            worker = _Worker(
                index=index,
                process=process,
                conn=parent_conn,
                shard_ids=tuple(spec.shard_id for spec in assigned),
            )
            self._workers.append(worker)
            for spec in assigned:
                self._worker_of[spec.shard_id] = worker
        self._launched = True
        try:
            for worker in self._workers:
                reply = self._recv(worker)
                if reply[0] != "READY":
                    raise WorkerDied(
                        f"worker {worker.index} failed during world "
                        f"construction: {reply[-1]}"
                    )
                for shard_id, (sizes, status) in reply[1].items():
                    self._initial_sizes.update(sizes)
                    self._statuses[shard_id] = status
        except BaseException:
            self._terminate()
            raise
        self.timings["prepare"] = time.perf_counter() - started

    def run(self) -> None:
        """Drive every shard to quiescence; collect; shut down."""
        if self._finished:
            return
        self.prepare()
        try:
            started = time.perf_counter()
            self._drive()
            self.timings["execute"] = time.perf_counter() - started
            started = time.perf_counter()
            self._states()
            self.timings["collect"] = time.perf_counter() - started
        finally:
            self._shutdown()
        self._finished = True

    # ------------------------------------------------------------------
    # the pipe transport
    # ------------------------------------------------------------------

    def _exchange(self, commands: list[tuple[int, str]]) -> dict:
        """One round trip: every command out, then every reply in."""
        if not self._launched:
            raise RuntimeError("runtime has not run to completion yet")
        if self.kill_shard_after is not None:
            victim, kill_round = self.kill_shard_after
            if self.rounds == kill_round:
                self._send(self._worker_of[victim], ("CRASH", victim))
        for shard_id, op in commands:
            self._send(self._worker_of[shard_id], (op, shard_id))
        replies = {}
        for worker in self._workers:
            while worker.pending:
                kind, shard_id, payload = self._recv(worker)
                worker.pending -= 1
                if kind == "ERROR":
                    self._terminate()
                    raise WorkerDied(
                        f"worker {worker.index} failed: {payload}"
                    )
                replies[shard_id] = payload
        self.rounds += 1
        # In the order sent, not the order drained: float sums over the
        # answers (merged metrics) must not depend on shard placement.
        return {shard_id: replies[shard_id] for shard_id, _op in commands}

    def _send(self, worker: _Worker, command: tuple) -> None:
        try:
            worker.conn.send(command)
        except (BrokenPipeError, OSError) as exc:
            self._terminate()
            raise WorkerDied(
                f"worker {worker.index} (shards {list(worker.shard_ids)}) "
                f"died: pipe closed while sending {command[0]}"
            ) from exc
        if command[0] != "CRASH":  # CRASH is fire-and-forget
            worker.pending += 1

    def _recv(self, worker: _Worker):
        deadline = time.monotonic() + self.reply_timeout
        while True:
            cause = None
            try:
                if worker.conn.poll(0.05):
                    return worker.conn.recv()
                # Exited with nothing left in the pipe to read.
                alive = worker.process.is_alive()
                died = not alive and not worker.conn.poll(0.05)
            except (EOFError, ConnectionResetError, OSError) as exc:
                died, cause = True, exc
            if died:
                self._terminate()
                raise WorkerDied(
                    f"worker {worker.index} (shards "
                    f"{list(worker.shard_ids)}) died mid-protocol "
                    f"(exit code {worker.process.exitcode})"
                ) from cause
            if time.monotonic() > deadline:
                self._terminate()
                raise WorkerDied(
                    f"worker {worker.index} did not answer within "
                    f"{self.reply_timeout:g}s"
                )

    def _shutdown(self) -> None:
        for worker in self._workers:
            try:
                worker.conn.send(("SHUTDOWN",))
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers:
            worker.process.join(timeout=5.0)
        self._terminate()

    def _terminate(self) -> None:
        for worker in self._workers:
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5.0)
            try:
                worker.conn.close()
            except OSError:
                pass
