"""Process-parallel shard runtime (multi-core warehouse execution).

The inline :class:`~repro.core.sharding.ShardedWarehouse` coordinator
steps every shard world interleaved in ONE Python process: the virtual
clocks interleave but the wall clock pays for every shard serially.
This module executes the same shard worlds across OS worker processes:

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
* the parent drives the workers over pipes with a small command
  protocol — ``STEP``, ``BARRIER_HOLD`` / ``BARRIER_RELEASE`` (the
  cross-shard SC barrier), ``CRASH``, ``FINISH``, ``COLLECT``,
  ``SHUTDOWN`` — replicating the inline coordinator's min-virtual-clock
  and earliest-SC-release rules from compact :class:`ShardStatus`
  snapshots returned with every reply;
* at quiescence each worker ships its shard state home — extents
  through the PR-6 checkpoint codecs
  (:func:`repro.recovery.codec.table_to_json`), committed refs,
  metrics, the per-shard :class:`~repro.sim.engine.InstallRecord` log
  for the read front end, and its virtual clock.

**Determinism / bit-identity argument.**  Shard worlds are fully
independent (each owns its engine, sources, UMQ, caches and journal;
the router filters only *delivery* into the local UMQ), so a shard's
trace — extent, committed set, install log, virtual clock — depends
only on its own step *count*, never on when peers step.  The SC
barrier is a scheduling preference, not a correctness crutch (see
:mod:`repro.core.sharding`).  The runtime therefore steps all runnable
shards **concurrently per coordinator round** — the maximal-parallel
relaxation of the inline one-shard-per-round rule, with ``STEP``
dispatch ordered by ``(virtual clock, shard id)`` — and still produces
per-shard results byte-identical to the inline coordinator.  Only the
barrier deferral/release *counters* may differ (the round structure
differs); everything the equivalence tests and ABL-13 compare —
extents, committed ``(source, seqno)`` sets, per-shard virtual clocks,
install logs — is invariant.  The virtual clock itself cannot move:
all virtual costs come from the cost model inside each world, and the
process-global plan cache / tuple interning are value-transparent.

Crashed *schedulers* (seeded :class:`~repro.recovery.crash.CrashPlan`)
recover inside the worker from the shard's own journal, exactly as
inline (:func:`repro.core.sharding.step_shard` is shared).  A dead
worker *process* is a different failure: the coordinator detects the
closed pipe, terminates the fleet and raises a clean ``RuntimeError``
instead of hanging.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable

from ..sim.costs import CostModel
from ..sim.metrics import Metrics
from .sharding import (
    Shard,
    ShardRouter,
    ShardStatus,
    WorkloadSpec,
    status_of,
    step_shard,
)

#: builds one shard world from its spec, registering its views with the
#: given router; a spec is any picklable object with ``shard_id`` and
#: ``view_names``
WorldBuilder = Callable[[Any, ShardRouter], Shard]

#: worker exit code after a ``CRASH`` command (hard process death)
_CRASH_EXIT_CODE = 23


def plan_round(
    statuses: dict[int, ShardStatus],
) -> tuple[list[int], list[int], int | None]:
    """One coordinator round decision from status snapshots.

    Returns ``(steps, holds, release)``: shard ids to ``STEP`` (every
    runnable shard, ordered by ``(virtual clock, shard id)`` — the
    concurrent generalization of min-clock stepping), shard ids held at
    the SC barrier, and the earliest-SC shard released when *every*
    active shard is deferred (circular wait), or ``None``.  Pure
    function of the statuses — the same rules
    :meth:`~repro.core.sharding.ShardedWarehouse.run` applies to live
    shards, unit-testable without processes.
    """
    active = [
        status for status in statuses.values() if not status.quiescent
    ]
    runnable: list[ShardStatus] = []
    deferred: list[ShardStatus] = []
    for status in active:
        barrier_at = status.barrier_at
        if barrier_at is not None and any(
            peer.blocks_barrier(barrier_at)
            for peer in statuses.values()
            if peer.shard_id != status.shard_id
        ):
            deferred.append(status)
        else:
            runnable.append(status)
    release: int | None = None
    if not runnable and deferred:
        released = min(
            deferred, key=lambda status: (status.barrier_at, status.shard_id)
        )
        deferred = [
            status for status in deferred if status is not released
        ]
        release = released.shard_id
    steps = [
        status.shard_id
        for status in sorted(
            runnable,
            key=lambda status: (status.clock_now, status.shard_id),
        )
    ]
    holds = sorted(status.shard_id for status in deferred)
    return steps, holds, release


# ----------------------------------------------------------------------
# the worker side
# ----------------------------------------------------------------------


def _collect_state(shard) -> dict:
    """Ship one quiescent shard's results home (codec-encoded extents,
    committed refs, metrics, install log, virtual clock)."""
    from ..recovery.codec import table_to_json
    from ..views.consistency import check_convergence

    extents = {}
    consistent = True
    for manager in shard.view_managers():
        extents[manager.view.name] = table_to_json(manager.mv.extent)
        if not check_convergence(manager).consistent:
            consistent = False
    committed = {
        (message_source, seqno)
        for message_source, seqno in shard.scheduler.stats.processed_messages
    }
    if shard.recovery is not None:
        committed |= set(shard.recovery.installed_refs())
    return {
        "shard_id": shard.shard_id,
        "view_names": tuple(shard.view_names),
        "extents": extents,
        "committed": sorted(committed),
        "clock_now": shard.engine.clock.now,
        "cost_model": shard.engine.cost_model,
        "metrics": shard.engine.metrics,
        "install_log": list(shard.engine.install_log),
        "consistent": consistent,
        "crash_reports": len(shard.crash_reports),
    }


def _worker_main(
    conn,
    build_world: WorldBuilder,
    specs: list,
    workloads: list[WorkloadSpec],
    executor: str | None,
) -> None:
    """One worker process: build assigned shard worlds, serve commands.

    Every command is answered with exactly one reply (FIFO per pipe),
    so the parent can batch a whole coordinator round per worker and
    read the replies back in order.
    """
    try:
        if executor is not None:
            from ..relational.executor import set_executor_mode

            set_executor_mode(executor)
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
            shard_id = command[1]
            shard = shards[shard_id]
            if op == "STEP":
                step_shard(shard)
                conn.send(("STEPPED", shard_id, status_of(shard)))
            elif op == "BARRIER_HOLD":
                shard.engine.metrics.barrier_deferrals += 1
                conn.send(("HELD", shard_id, status_of(shard)))
            elif op == "BARRIER_RELEASE":
                shard.engine.metrics.barrier_releases += 1
                step_shard(shard)
                conn.send(("STEPPED", shard_id, status_of(shard)))
            elif op == "FINISH":
                shard.scheduler.finish()
                conn.send(("FINISHED", shard_id, status_of(shard)))
            elif op == "COLLECT":
                conn.send(("STATE", shard_id, _collect_state(shard)))
            elif op == "CRASH":
                # Hard process death (chaos hook / death-path tests):
                # no reply, no cleanup — the parent must detect the
                # closed pipe and fail cleanly.
                os._exit(_CRASH_EXIT_CODE)
            else:
                raise ValueError(f"unknown command {op!r}")
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


class ProcessShardRuntime:
    """Drives shard worlds across worker processes to quiescence.

    Bulk-synchronous coordinator: each round gathers the latest shard
    statuses (piggybacked on every reply), applies :func:`plan_round`
    — the inline coordinator's barrier + min-clock rules — and issues
    the round's command batch to every worker, which execute their
    shards' steps concurrently.  ``processes`` workers host
    ``len(specs)`` shards round-robin; ``processes`` is clamped to the
    shard count.

    The runtime is single-shot: :meth:`run` drives to quiescence,
    collects every shard's state and shuts the fleet down; the
    accessors then answer from the collected state.
    """

    def __init__(
        self,
        specs: list,
        build_world: WorldBuilder,
        processes: int,
        executor: str | None = None,
        reply_timeout: float = 600.0,
        kill_shard_after: tuple[int, int] | None = None,
    ) -> None:
        if not specs:
            raise ValueError("ProcessShardRuntime needs at least one shard")
        if processes < 1:
            raise ValueError(f"need at least one process, got {processes}")
        self.specs = sorted(specs, key=lambda spec: spec.shard_id)
        self.build_world = build_world
        self.processes = min(processes, len(self.specs))
        if executor is None:
            from ..relational.executor import executor_mode

            executor = executor_mode()
        self.executor = executor
        self.reply_timeout = reply_timeout
        #: test/chaos knob: ``(shard_id, round_index)`` — at the start
        #: of that coordinator round the shard's worker is sent CRASH
        #: (hard ``os._exit``) instead of its command
        self.kill_shard_after = kill_shard_after
        self._workers: list[_Worker] = []
        self._worker_of: dict[int, _Worker] = {}
        self._workloads: list[WorkloadSpec] = []
        self._statuses: dict[int, ShardStatus] = {}
        self._initial_sizes: dict[str, int] = {}
        self._states: dict[int, dict] = {}
        self._launched = False
        self._finished = False
        self.rounds = 0
        self.commands_sent = 0
        #: wall-clock phase timings (``prepare`` = process launch +
        #: world builds, ``execute`` = coordinator rounds + FINISH,
        #: ``collect`` = state shipping + shutdown)
        self.timings: dict[str, float] = {}

    # ------------------------------------------------------------------
    # workload fan-out (before launch)
    # ------------------------------------------------------------------

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
                    self.executor,
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
            self._finish()
            self.timings["execute"] = time.perf_counter() - started
            started = time.perf_counter()
            self._collect()
            self.timings["collect"] = time.perf_counter() - started
        finally:
            self._shutdown()
        self._finished = True

    def _drive(self) -> None:
        while True:
            steps, holds, release = plan_round(self._statuses)
            if not steps and not holds and release is None:
                return
            if self.kill_shard_after is not None:
                victim, kill_round = self.kill_shard_after
                if self.rounds == kill_round:
                    self._send(self._worker_of[victim], ("CRASH", victim))
            for shard_id in holds:
                self._send(
                    self._worker_of[shard_id], ("BARRIER_HOLD", shard_id)
                )
            if release is not None:
                self._send(
                    self._worker_of[release], ("BARRIER_RELEASE", release)
                )
            for shard_id in steps:
                self._send(self._worker_of[shard_id], ("STEP", shard_id))
            self._drain_replies()
            self.rounds += 1

    def _finish(self) -> None:
        for spec in self.specs:
            self._send(self._worker_of[spec.shard_id], ("FINISH", spec.shard_id))
        self._drain_replies()

    def _collect(self) -> None:
        for spec in self.specs:
            self._send(
                self._worker_of[spec.shard_id], ("COLLECT", spec.shard_id)
            )
        for worker in self._workers:
            while worker.pending:
                reply = self._recv(worker)
                worker.pending -= 1
                if reply[0] == "ERROR":
                    raise WorkerDied(
                        f"worker {worker.index} failed: {reply[2]}"
                    )
                self._states[reply[1]] = reply[2]

    # ------------------------------------------------------------------
    # pipe plumbing
    # ------------------------------------------------------------------

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
        self.commands_sent += 1

    def _recv(self, worker: _Worker):
        deadline = time.monotonic() + self.reply_timeout
        while True:
            try:
                if worker.conn.poll(0.05):
                    return worker.conn.recv()
            except (EOFError, ConnectionResetError, OSError) as exc:
                self._terminate()
                raise WorkerDied(
                    f"worker {worker.index} (shards "
                    f"{list(worker.shard_ids)}) died mid-protocol "
                    f"(exit code {worker.process.exitcode})"
                ) from exc
            if not worker.process.is_alive() and not worker.conn.poll(0.05):
                self._terminate()
                raise WorkerDied(
                    f"worker {worker.index} (shards "
                    f"{list(worker.shard_ids)}) died mid-protocol "
                    f"(exit code {worker.process.exitcode})"
                )
            if time.monotonic() > deadline:
                self._terminate()
                raise WorkerDied(
                    f"worker {worker.index} did not answer within "
                    f"{self.reply_timeout:g}s"
                )

    def _drain_replies(self) -> None:
        for worker in self._workers:
            while worker.pending:
                reply = self._recv(worker)
                worker.pending -= 1
                if reply[0] == "ERROR":
                    self._terminate()
                    raise WorkerDied(
                        f"worker {worker.index} failed: {reply[2]}"
                    )
                self._statuses[reply[1]] = reply[2]

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

    # ------------------------------------------------------------------
    # collected-state accessors (post-run)
    # ------------------------------------------------------------------

    def _state(self, shard_id: int) -> dict:
        if not self._states:
            raise RuntimeError("runtime has not run to completion yet")
        return self._states[shard_id]

    def view_names(self) -> tuple[str, ...]:
        return tuple(
            name for spec in self.specs for name in spec.view_names
        )

    def extent_rows(self) -> dict[str, tuple]:
        """Canonical extents, decoded from the shipped codec tables —
        byte-comparable against the inline coordinator's."""
        from ..recovery.codec import table_from_json

        extents: dict[str, tuple] = {}
        for spec in self.specs:
            state = self._state(spec.shard_id)
            for name in spec.view_names:
                table = table_from_json(state["extents"][name])
                extents[name] = tuple(sorted(map(tuple, table.rows())))
        return extents

    def committed_updates(self) -> frozenset:
        refs: set = set()
        for spec in self.specs:
            refs.update(
                (source, seqno)
                for source, seqno in self._state(spec.shard_id)["committed"]
            )
        return frozenset(refs)

    def shard_clocks(self) -> dict[int, float]:
        return {
            spec.shard_id: self._state(spec.shard_id)["clock_now"]
            for spec in self.specs
        }

    def aggregate_makespan(self) -> float:
        return max(
            self._state(spec.shard_id)["metrics"].elapsed
            for spec in self.specs
        )

    def aggregate_metrics(self) -> Metrics:
        merged = Metrics.merge(
            self._state(spec.shard_id)["metrics"] for spec in self.specs
        )
        merged.makespan = self.aggregate_makespan()
        return merged

    def shard_metrics(self) -> dict[int, Metrics]:
        """Per-shard metrics (kernel cache efficiency per shard etc.)."""
        return {
            spec.shard_id: self._state(spec.shard_id)["metrics"]
            for spec in self.specs
        }

    def horizon(self) -> float:
        return max(
            self._state(spec.shard_id)["clock_now"] for spec in self.specs
        )

    def install_logs(self) -> dict[int, list]:
        return {
            spec.shard_id: self._state(spec.shard_id)["install_log"]
            for spec in self.specs
        }

    def initial_sizes(self) -> dict[str, int]:
        if not self._launched:
            self.prepare()
        return dict(self._initial_sizes)

    def consistent(self) -> bool:
        return all(
            self._state(spec.shard_id)["consistent"] for spec in self.specs
        )

    def crash_report_count(self) -> int:
        return sum(
            self._state(spec.shard_id)["crash_reports"]
            for spec in self.specs
        )

    def cost_model(self) -> CostModel:
        return self._state(self.specs[0].shard_id)["cost_model"]
