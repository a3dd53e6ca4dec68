"""In-memory tracer for the traced pass, and the wrappers it installs.

Nothing under ``src/repro`` knows about this file.  :func:`install`
rebinds the layers' public functions (class attributes, and every
``from x import f`` module binding of a module-level function) to timing
wrappers for the duration of one traced child process; :func:`uninstall`
puts the identical original objects back.

Every wrapped call pushes one *frame*.  When the frame closes, its
duration is added to its name's ``[calls, total_s, self_s]`` row, where
self time is the duration minus the durations of the frames opened
inside it -- so a layer's busy time never double-counts the layers it
calls.  Unit-level calls additionally leave a *span* record (name,
start, end, parent span, unit id); leaf calls, made tens of thousands of
times per run, are only aggregated as count + total on the span that
encloses them.  Maintenance processes are generators: each resumption of
a wrapped generator is one leaf frame, so the time a generator's body
spends between two ``yield``s lands on the layer that owns the body.
"""

from __future__ import annotations

import copy
import importlib
import sys
from collections import Counter
from time import perf_counter

SPAN = "span"  # unit-level call: frame + span record
LEAF = "leaf"  # hot call: frame, aggregated on the enclosing span
GEN = "gen"  # generator function: one leaf frame per resumption


class Tracer:
    """Frames, spans and counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        #: name -> [calls, total_s, self_s]
        self.totals: dict[str, list] = {}
        #: [name, start, end, parent span index, unit id, child_s, leaves]
        #: with leaves = {name: [count, total_s]}
        self.spans: list[list] = []
        #: (enclosing frame's name, name) -> [calls, total_s, self_s]:
        #: who called whom, for splitting a helper's time by its caller
        self.edges: dict[tuple[str, str], list] = {}
        self.counters: Counter = Counter()
        #: UMQ depth seen at the start of every scheduler step
        self.umq_depths: list[int] = []
        #: seconds covered by frames opened with nothing enclosing them
        self.root_s = 0.0
        #: scheduler steps begun; the one in progress is the unit id of
        #: the spans it encloses (-1 outside any step)
        self.steps = 0
        self.unit = -1
        self._stack: list[list] = []
        self._open_spans: list[int] = []

    def enter(self, name: str, record: bool) -> list:
        index = -1
        if record:
            parent = self._open_spans[-1] if self._open_spans else -1
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.unit, 0.0, {}])
            self._open_spans.append(index)
        frame = [name, index, 0.0, 0.0]
        self._stack.append(frame)
        frame[3] = perf_counter()
        return frame

    def exit(self, frame: list) -> None:
        end = perf_counter()
        name, index, child_s, start = frame
        duration = end - start
        self._stack.pop()
        row = self.totals.get(name)
        if row is None:
            row = self.totals[name] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += duration
        row[2] += duration - child_s
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            edge = self.edges.get((parent[0], name))
            if edge is None:
                edge = self.edges[(parent[0], name)] = [0, 0.0, 0.0]
            edge[0] += 1
            edge[1] += duration
            edge[2] += duration - child_s
        else:
            self.root_s += duration
        if index >= 0:
            self._open_spans.pop()
            span = self.spans[index]
            span[1], span[2], span[5] = start, end, child_s
        elif self._open_spans:
            leaves = self.spans[self._open_spans[-1]][6]
            leaf = leaves.get(name)
            if leaf is None:
                leaves[name] = [1, duration]
            else:
                leaf[0] += 1
                leaf[1] += duration

    def take(self) -> "Tracer":
        """Hand over everything recorded so far and start afresh."""
        taken = copy.copy(self)
        self.reset()
        return taken

    # -- read side ------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, *prefixes: str) -> float:
        """Summed self time of every name equal to a prefix or below it."""
        return sum(
            row[2]
            for name, row in self.totals.items()
            if any(
                name == prefix or name.startswith(prefix + ".")
                for prefix in prefixes
            )
        )

    def edge_self_s(self, parent: str, name: str) -> float:
        return self.edges.get((parent, name), (0, 0.0, 0.0))[2]

    def durations(self, *names: str) -> list[float]:
        return [
            span[2] - span[1] for span in self.spans if span[0] in names
        ]

    def export(self) -> dict:
        return {
            "span_fields": [
                "name", "start_s", "end_s", "parent", "unit",
                "child_s", "leaves",
            ],
            "spans": self.spans,
            "totals": {
                name: {"calls": row[0], "total_s": row[1], "self_s": row[2]}
                for name, row in sorted(self.totals.items())
            },
            "edges": {
                f"{parent} > {name}": {
                    "calls": row[0], "total_s": row[1], "self_s": row[2]
                }
                for (parent, name), row in sorted(self.edges.items())
            },
            "counters": dict(sorted(self.counters.items())),
        }


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------


def timed(tracer: Tracer, name: str, function, record: bool = False):
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name, record)
        try:
            return function(*args, **kwargs)
        finally:
            tracer.exit(frame)

    wrapper.__wrapped__ = function
    return wrapper


def timed_generator(tracer: Tracer, name: str, function):
    """Wrap a function returning a maintenance generator: every
    resumption of the generator is one ``name`` frame."""

    def wrapper(*args, **kwargs):
        tracer.counters[name + ".started"] += 1
        inner = function(*args, **kwargs)
        value = error = None
        while True:
            frame = tracer.enter(name, False)
            try:
                if error is not None:
                    effect = inner.throw(error)
                else:
                    effect = inner.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                tracer.exit(frame)
            try:
                value, error = (yield effect), None
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as thrown:
                value, error = None, thrown

    wrapper.__wrapped__ = function
    return wrapper


def _step_wrapper(tracer: Tracer, step):
    """``DynoScheduler.step``: one span per step, named after the loop
    that ran it, plus the UMQ depth sample and the unit id."""

    def wrapper(self):
        tracer.umq_depths.append(len(self.umq))
        tracer.steps += 1
        tracer.unit = tracer.steps
        name = (
            "core.parallel.step"
            if hasattr(self, "pool")
            else "core.scheduler.step"
        )
        frame = tracer.enter(name, True)
        try:
            return step(self)
        finally:
            tracer.exit(frame)
            tracer.unit = -1

    wrapper.__wrapped__ = step
    return wrapper


def _schedule_wrapper(tracer: Tracer, schedule):
    """``SimEngine.schedule``: time every event callback under the
    module that scheduled it (the parallel scheduler's resumptions and
    the wrappers' deliveries run as events, not as calls)."""

    def wrapper(self, at, action, owner=None):
        module = getattr(action, "__module__", None) or "repro.sim.engine"
        name = module.removeprefix("repro.") + ".event"
        return schedule(self, at, timed(tracer, name, action), owner)

    wrapper.__wrapped__ = schedule
    return wrapper


def _pending_wrapper(tracer: Tracer, compensate):
    """``compensate_answer``: also count the leaked updates it is given."""
    inner = timed(tracer, "maintenance.compensate", compensate)

    def wrapper(answer, query, alias, leaked, *rest, **kwargs):
        tracer.counters["maintenance.compensate.pending"] += len(leaked)
        return inner(answer, query, alias, leaked, *rest, **kwargs)

    wrapper.__wrapped__ = compensate
    return wrapper


def _bytes_wrapper(name: str):
    """File sinks return the byte count they wrote; sum it."""

    def make(tracer: Tracer, write):
        inner = timed(tracer, name, write)

        def wrapper(*args, **kwargs):
            written = inner(*args, **kwargs)
            tracer.counters["recovery.bytes_written"] += written
            return written

        wrapper.__wrapped__ = write
        return wrapper

    return make


_INCREMENTAL = (
    "umq_received", "umq_removed_head", "umq_removed_unit",
    "umq_requeued_front", "umq_reordered", "rebuild", "dependencies",
    "detection", "footprint_at", "unit_dependencies", "ready_units",
    "unit_successors",
)
_LISTENER = (
    "umq_received", "umq_removed_head", "umq_removed_unit",
    "umq_requeued_front", "umq_reordered",
)

#: (module, class or None, attribute, span name, kind or wrapper factory)
TARGETS = (
    # core
    ("repro.core.scheduler", "DynoScheduler", "step", "", _step_wrapper),
    ("repro.core.scheduler", "DynoScheduler", "detect_and_correct",
     "core.detect_correct", SPAN),
    *(
        ("repro.core.incremental", "IncrementalDependencyGraph", method,
         "core.incremental", LEAF)
        for method in _INCREMENTAL
    ),
    *(
        ("repro.core.parallel", "ParallelScheduler", method,
         "core.parallel.listener", LEAF)
        for method in _LISTENER
    ),
    ("repro.core.sharding", "ShardedWarehouse", "run",
     "core.sharding.run", SPAN),
    ("repro.core.sharding", None, "step_shard",
     "core.sharding.step_shard", SPAN),
    ("repro.core.runtime", "ProcessShardRuntime", "prepare",
     "core.runtime.prepare", SPAN),
    ("repro.core.runtime", "ProcessShardRuntime", "run",
     "core.runtime.run", SPAN),
    # relational
    ("repro.relational.executor", None, "execute",
     "relational.execute", LEAF),
    # maintenance
    ("repro.maintenance.compensation", None, "compensate_answer",
     "", _pending_wrapper),
    ("repro.maintenance.compensation", None, "effect_on_answer",
     "maintenance.effect_on_answer", LEAF),
    ("repro.maintenance.vm", None, "maintain_data_update",
     "maintenance.vm", GEN),
    ("repro.maintenance.va", None, "adapt_view", "maintenance.va", GEN),
    ("repro.maintenance.vs", "ViewSynchronizer", "synchronize_change",
     "maintenance.vs", LEAF),
    ("repro.maintenance.selfmaint", "SelfMaintenanceStore", "serve",
     "maintenance.selfmaint.serve", LEAF),
    ("repro.maintenance.selfmaint", "SelfMaintenanceStore", "observe",
     "maintenance.selfmaint.observe", LEAF),
    # cache
    ("repro.cache.snapshot", "SnapshotCache", "serve", "cache.serve", LEAF),
    ("repro.cache.snapshot", "SnapshotCache", "store", "cache.store", LEAF),
    # sources
    ("repro.sources.source", "DataSource", "execute",
     "sources.execute", LEAF),
    ("repro.sources.sqlite_source", "SqliteDataSource", "execute",
     "sources.execute", LEAF),
    ("repro.sources.source", "DataSource", "commit", "sources.commit", LEAF),
    # views
    ("repro.views.manager", "ViewManager", "build_maintenance",
     "views.build_maintenance", GEN),
    ("repro.views.manager", "ViewManager", "compute_unit",
     "views.compute_unit", GEN),
    ("repro.views.manager", "ViewManager", "install_unit",
     "views.install_unit", LEAF),
    ("repro.views.multi", "MultiViewManager", "build_maintenance",
     "views.build_maintenance", GEN),
    ("repro.views.multi", "MultiViewManager", "compute_unit",
     "views.compute_unit", GEN),
    ("repro.views.multi", "MultiViewManager", "install_unit",
     "views.install_unit", LEAF),
    ("repro.views.umq", "UpdateMessageQueue", "receive",
     "views.umq.receive", LEAF),
    ("repro.views.umq", "UpdateMessageQueue", "remove_head",
     "views.umq.remove_head", LEAF),
    ("repro.views.umq", "UpdateMessageQueue", "replace_order",
     "views.umq.replace_order", LEAF),
    # sim
    ("repro.sim.engine", "SimEngine", "run_process", "sim.run_process", SPAN),
    ("repro.sim.engine", "SimEngine", "perform", "sim.perform", LEAF),
    ("repro.sim.engine", "SimEngine", "advance_to", "sim.advance", LEAF),
    ("repro.sim.engine", "SimEngine", "schedule", "", _schedule_wrapper),
    # recovery
    ("repro.recovery.journal", "FileJournalSink", "append",
     "", _bytes_wrapper("recovery.journal.append")),
    ("repro.recovery.journal", "MaintenanceJournal", "record_install",
     "recovery.journal.record", LEAF),
    *(
        ("repro.recovery.journal", "MaintenanceJournal", method,
         "recovery.journal.listener", LEAF)
        for method in _LISTENER
    ),
    ("repro.recovery.checkpoint", "FileCheckpointStore", "save",
     "", _bytes_wrapper("recovery.checkpoint.save")),
    ("repro.recovery.recover", "RecoveryHarness", "checkpoint",
     "recovery.checkpoint", SPAN),
    ("repro.recovery.recover", "RecoveryHarness", "recover",
     "recovery.recover", SPAN),
    # frontend
    ("repro.frontend.reads", "ReadFrontEnd", "from_install_logs",
     "frontend.build", SPAN),
    ("repro.frontend.reads", "ReadFrontEnd", "serve", "frontend.serve", SPAN),
)

#: binds ``execute`` by name and is imported by no target's module: load
#: it before rebinding, or a later import would keep the wrapper for good
_BINDERS = ("repro.views.audit",)


def _wrap(tracer: Tracer, name: str, kind, function):
    if kind == GEN:
        return timed_generator(tracer, name, function)
    if kind in (SPAN, LEAF):
        return timed(tracer, name, function, record=kind == SPAN)
    return kind(tracer, function)


def _repro_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None
        and (name == "repro" or name.startswith("repro."))
    ]


def install(tracer: Tracer) -> list[tuple]:
    """Rebind every target to its wrapper.

    Returns the undo list ``[(owner, attribute, original, wrapper)]``:
    ``owner`` is the class or module whose ``__dict__`` held
    ``original`` -- for a module-level function, one row per module that
    had bound it by name."""
    for module_name in _BINDERS + tuple(target[0] for target in TARGETS):
        importlib.import_module(module_name)
    undo: list[tuple] = []
    for module_name, class_name, attribute, name, kind in TARGETS:
        module = sys.modules[module_name]
        if class_name is None:
            original = getattr(module, attribute)
            wrapper = _wrap(tracer, name, kind, original)
            for holder in _repro_modules():
                for bound_as, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, bound_as, wrapper)
                        undo.append((holder, bound_as, original, wrapper))
            continue
        owner = getattr(module, class_name)
        original = vars(owner)[attribute]
        if isinstance(original, classmethod):
            wrapper = classmethod(
                _wrap(tracer, name, kind, original.__func__)
            )
        else:
            wrapper = _wrap(tracer, name, kind, original)
        setattr(owner, attribute, wrapper)
        undo.append((owner, attribute, original, wrapper))
    return undo


def uninstall(undo: list[tuple]) -> None:
    """Put the identical original objects back."""
    for owner, attribute, original, _wrapper in reversed(undo):
        setattr(owner, attribute, original)


def restored(undo: list[tuple]) -> bool:
    """Is every wrapped attribute the identical original object again?"""
    return all(
        vars(owner)[attribute] is original
        for owner, attribute, original, _wrapper in undo
    )
