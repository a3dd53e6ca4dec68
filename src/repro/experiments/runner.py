"""Shared scaffolding for figure reproductions.

Each figure module produces a :class:`FigureResult` — the series the
paper charts, as rows of numbers — and the benchmark harness prints it.
Absolute values are virtual seconds from the calibrated cost model; the
claims under test are the *shapes* (who wins, where peaks/crossovers
fall), recorded per figure in ``EXPERIMENTS.md``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from operator import attrgetter
from types import SimpleNamespace
from typing import Callable, Mapping, Sequence

from ..core.sharding import WorkloadSpec
from ..core.strategies import OPTIMISTIC, PESSIMISTIC
from ..sim.metrics import Metrics
from .config import WarehouseConfig
from .testbed import ShardedTestbed, Testbed


@dataclass
class SeriesPoint:
    """One x position with one value per series."""

    x: float | int | str
    values: dict[str, float]


@dataclass
class FigureResult:
    """A reproduced table/figure, ready to print."""

    figure_id: str
    title: str
    x_label: str
    #: column order of ``table()``; left empty, the first point's
    series_names: list[str] = field(default_factory=list)
    points: list[SeriesPoint] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    consistent: bool = True
    #: ``"virtual"`` (cost-model seconds, regression-checked exactly) or
    #: ``"wall"`` (``perf_counter`` seconds, checked against a band):
    #: stamped by the figure's row of the experiment table, so ``None``
    #: only on the result of a runner called directly
    timebase: str | None = None

    def add(self, x, **values: float) -> None:
        if not self.series_names:
            self.series_names = list(values)
        self.points.append(SeriesPoint(x, dict(values)))

    def require(self, ok: bool, note: str) -> None:
        """An identity or convergence check of the run: a failed one
        clears the consistency bit and says why."""
        if not ok:
            self.consistent = False
            self.notes.append(note)

    def series(self, name: str) -> list[float]:
        return [point.values[name] for point in self.points]

    def xs(self) -> list:
        return [point.x for point in self.points]

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------

    def table(self) -> str:
        header = [self.x_label] + self.series_names
        widths = [max(12, len(name) + 2) for name in header]
        lines = [
            f"{self.figure_id}: {self.title}",
            " | ".join(
                name.ljust(width) for name, width in zip(header, widths)
            ),
            "-+-".join("-" * width for width in widths),
        ]
        for point in self.points:
            cells = [str(point.x).ljust(widths[0])]
            for name, width in zip(self.series_names, widths[1:]):
                value = point.values.get(name)
                cell = "-" if value is None else f"{value:.2f}"
                cells.append(cell.ljust(width))
            lines.append(" | ".join(cells))
        for note in self.notes:
            lines.append(f"note: {note}")
        if not self.consistent:
            lines.append("WARNING: a run failed the convergence check")
        return "\n".join(lines)

    def to_json(self, indent: int = 2) -> str:
        """The figure as a machine-readable JSON document (the CI
        artifact format; keys sorted so baseline diffs are stable
        regardless of insertion order, points in series order)."""
        document = {
            "figure_id": self.figure_id,
            "title": self.title,
            "x_label": self.x_label,
            "series_names": list(self.series_names),
            "points": [
                {"x": point.x, "values": point.values}
                for point in self.points
            ],
            "notes": list(self.notes),
            "consistent": self.consistent,
        }
        if self.timebase is not None:
            document["timebase"] = self.timebase
        return json.dumps(document, indent=indent, sort_keys=True)


def ratio(numerator: float, denominator: float) -> float:
    """A speedup-style quotient that reads 0 when undefined."""
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# one arm = one config run over one workload
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ArmResult:
    """What one quiescent run produced; ``extents`` and ``committed``
    are byte-comparable across arms."""

    #: virtual seconds: makespan under the parallel executor or across
    #: shards, summed busy time for a serial drain
    cost: float
    #: maintenance queries that actually travelled to a source
    trips: int
    #: view name -> sorted row tuples
    extents: dict[str, tuple]
    #: every maintained ``(source, seqno)``, across crashes
    committed: frozenset
    metrics: Metrics
    #: every view matches its fresh recompute
    consistent: bool
    #: the quiescent world, for arm-specific observables (virtual
    #: clocks, the read front end)
    testbed: Testbed | ShardedTestbed
    #: wall seconds to build the world(s) and schedule the workload /
    #: to drive them to quiescence (the wall-clock figures' raw data)
    build_s: float
    run_s: float

    def same_outcome(self, other: "ArmResult") -> bool:
        return (
            self.extents == other.extents
            and self.committed == other.committed
        )


def run_arm(
    config: WarehouseConfig,
    workload: Sequence[WorkloadSpec],
    world: type[Testbed] | type[ShardedTestbed] = Testbed,
) -> ArmResult:
    """Build ``config``'s world, play ``workload`` into it, drive it to
    quiescence and observe.  ``world`` picks the shape: one
    :class:`Testbed` world, or a :class:`ShardedTestbed` of
    ``config.shards`` worlds behind the coordinator."""
    started = time.perf_counter()
    testbed = world.build(config)
    testbed.schedule(*workload)
    testbed.prepare()
    build_s = time.perf_counter() - started
    started = time.perf_counter()
    testbed.run()
    run_s = time.perf_counter() - started
    metrics = testbed.metrics
    return ArmResult(
        cost=metrics.elapsed,
        trips=metrics.source_round_trips,
        extents=testbed.extent_rows(),
        committed=testbed.committed_updates(),
        metrics=metrics,
        consistent=testbed.check_consistency(),
        testbed=testbed,
        build_s=build_s,
        run_s=run_s,
    )


def require_identical(
    result: FigureResult, label: str, arm: ArmResult, oracle: ArmResult
) -> None:
    """The one "identical to oracle" check: ``arm`` converged, and its
    extents and committed ``(source, seqno)`` set are byte-identical to
    ``oracle``'s."""
    result.require(arm.consistent, f"{label}: failed convergence check")
    result.require(
        arm.same_outcome(oracle), f"{label}: diverged from the oracle arm"
    )


Reading = str | tuple[str, str]


def read_columns(
    arms: Mapping[str, SimpleNamespace],
    columns: Sequence[tuple[str, str, Reading]],
) -> dict[str, float]:
    """One point of a figure from ``(series, group label, reading)``
    rows: a reading is a dotted path into that group's arms
    (``"on.metrics.cache_hits"``) or a ``(numerator, denominator)``
    pair of paths (``("off.trips", "on.trips")``)."""

    def read(group: SimpleNamespace, reading: Reading) -> float:
        if isinstance(reading, str):
            return float(attrgetter(reading)(group))
        return ratio(*(attrgetter(path)(group) for path in reading))

    return {
        series: read(arms[label], reading)
        for series, label, reading in columns
    }


def arm_sweep(
    figure_id: str,
    title: str,
    x_label: str,
    xs: Sequence,
    stream_of: Callable[[object], Sequence[WorkloadSpec]],
    groups: Mapping[str, tuple[WarehouseConfig, Mapping[str, dict]]],
    columns: Sequence[tuple[str, str, Reading]],
) -> FigureResult:
    """The one paired-arm sweep: at every ``x``, each labelled ``(base
    config, {variant: config delta})`` group maintains ``stream_of(x)``
    once as the reference arm ``off`` and once per
    ``base.replace(**delta)`` variant.  Every arm must converge, every
    variant must be identical to its reference, and ``columns`` reads
    the point off the arms (:func:`read_columns`)."""
    result = FigureResult(figure_id, title, x_label)
    for x in xs:
        stream = stream_of(x)
        arms = {}
        where = f"{x_label}={x}"
        for label, (base, variants) in groups.items():
            off = run_arm(base, stream)
            result.require(
                off.consistent, f"{label} {where}: failed convergence check"
            )
            arms[label] = group = SimpleNamespace(off=off)
            for name, delta in variants.items():
                arm = run_arm(base.replace(**delta), stream)
                require_identical(result, f"{label} {name} {where}", arm, off)
                setattr(group, name, arm)
        result.add(x, **read_columns(arms, columns))
    return result


def abort_cost_sweep(
    figure_id: str,
    title: str,
    x_label: str,
    config: WarehouseConfig,
    xs: Sequence,
    stream_of,
) -> FigureResult:
    """The sweep FIG-10, FIG-11 and FIG-12 share: at every ``x`` an
    optimistic and a pessimistic arm maintain the same DU + SC stream
    (``stream_of(x)``); each reports its total and its abort cost."""
    strategies = {"optimistic": OPTIMISTIC, "pessimistic": PESSIMISTIC}
    groups = {
        name: (config.replace(strategy=strategy), {})
        for name, strategy in strategies.items()
    }
    columns = []
    for name in strategies:
        columns.append((name, name, "off.metrics.maintenance_cost"))
        columns.append((f"abort_of_{name}", name, "off.metrics.abort_cost"))
    return arm_sweep(figure_id, title, x_label, xs, stream_of, groups, columns)
