"""ABL-12: the wall-clock kernel ablation — compiled vs naive executor.

Every other figure in this repository reports *virtual* seconds from the
calibrated cost model; this one reports **wall-clock** seconds measured
with ``time.perf_counter``.  The two lanes are deliberately separate:
the compiled kernel (:mod:`repro.relational.plan`) is not allowed to
move a single virtual-clock number — simulated costs are charged from
the cost model, never from the Python evaluator — so its entire effect
is the real time the reproduction takes to run.

Arms, per point of the data-update sweep:

* **maintain / memory** — the fig12-shaped DU stream (mixed
  insert/delete updates over the 6-way join view) driven to quiescence
  on the in-process backend, once per executor;
* **maintain / sqlite** — the same stream with sources answering over
  stdlib ``sqlite3``.  Source answers come from SQL here, so the
  kernel only accelerates the warehouse-local delta evaluation — the
  honest lower bound of the speedup;
* **recompute** — the fig08-shaped join-heavy arm: a full 6-way join
  recomputation of the view over populated sources.  This is where the
  compiled plans, closure predicates and the columnar hash join carry
  the whole workload; the acceptance bar (compiled >= 2x naive) is
  asserted on this arm.

Every compiled arm must be **byte-identical** to its naive twin: same
final view extent, same committed ``(source, seqno)`` set, same final
virtual clock.  Any divergence clears the figure's consistency bit.
"""

from __future__ import annotations

import cProfile
import pstats
import time
from pathlib import Path

from ..relational.executor import executor_mode, set_executor_mode
from .config import WarehouseConfig
from .runner import ArmResult, FigureResult, ratio, run_arm
from .testbed import Testbed, du_stream

MODES = ("naive", "compiled")


def _best_of(repeats: int, config: WarehouseConfig, stream) -> ArmResult:
    """Run the arm ``repeats`` times; keep the fastest drive to
    quiescence (every repeat's outcome is identical — deterministic
    virtual time)."""
    return min(
        (run_arm(config, stream) for _ in range(repeats)),
        key=lambda arm: arm.run_s,
    )


def _recompute_arm(config: WarehouseConfig, repeats: int):
    """Time a full 6-way join recompute of the view (join-heavy arm)."""
    manager = Testbed.build(config).manager
    best = float("inf")
    table = None
    for _ in range(repeats + 1):  # one extra: warm caches/compile once
        started = time.perf_counter()
        table = manager.recompute_reference()
        best = min(best, time.perf_counter() - started)
    extent = tuple(sorted(map(tuple, table.rows())))
    return best, extent


def _profiled(callable_, path: Path) -> None:
    """Run ``callable_`` under cProfile; dump binary + text artifacts."""
    profiler = cProfile.Profile()
    profiler.enable()
    callable_()
    profiler.disable()
    profiler.dump_stats(path)
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    with open(path.with_suffix(".txt"), "w") as sink:
        stats.stream = sink  # pstats prints to its stream attribute
        stats.print_stats(30)


def run_wallclock_ablation(
    config: WarehouseConfig = WarehouseConfig(tuples_per_relation=300),
    du_counts: tuple[int, ...] = (40, 80),
    recompute_tuples: int = 2500,
    backends: tuple[str, ...] = ("memory", "sqlite"),
    key_domain: int = 40,
    workload_seed: int = 5,
    repeats: int = 3,
    profile_dir: str | Path | None = None,
) -> FigureResult:
    """Measure compiled-vs-naive wall time; prove result identity.

    ``profile_dir`` additionally re-runs the heaviest compiled and
    naive arms under ``cProfile`` and drops ``*.prof`` (binary, for
    ``snakeviz``/``pstats``) and ``*.txt`` (top-30 cumulative) files
    there — the profiling lane of the wall-clock bench.
    """
    result = FigureResult(
        figure_id="ABL-12-wallclock",
        title="Wall-clock kernel: compiled plans vs naive executor",
        x_label="data updates",
        series_names=[
            name
            for backend in backends
            for name in (
                f"{backend}_naive_s",
                f"{backend}_compiled_s",
                f"{backend}_maintain_speedup",
            )
        ]
        + ["recompute_naive_s", "recompute_compiled_s", "recompute_speedup"],
        timebase="wall",
    )

    def stream(du_count: int):
        return [
            du_stream(
                config, du_count, 0.05, 0.01,
                seed=workload_seed, key_domain=key_domain,
            )
        ]

    recompute = config.replace(tuples_per_relation=recompute_tuples)
    previous_mode = executor_mode()
    try:
        for du_count in du_counts:
            row: dict[str, float] = {}
            for backend in backends:
                naive, compiled = (
                    _best_of(
                        repeats,
                        config.replace(backend=backend, executor=mode),
                        stream(du_count),
                    )
                    for mode in MODES
                )
                # Identity: extent, committed set, virtual clock.
                result.require(
                    compiled.same_outcome(naive),
                    f"{backend} du={du_count}: compiled arm diverged "
                    "from the naive oracle",
                )
                result.require(
                    naive.cost == compiled.cost,
                    f"{backend} du={du_count}: virtual clock moved "
                    f"({naive.cost} -> {compiled.cost}) — the executor "
                    "must not perturb simulated costs",
                )
                row[f"{backend}_naive_s"] = naive.run_s
                row[f"{backend}_compiled_s"] = compiled.run_s
                row[f"{backend}_maintain_speedup"] = ratio(
                    naive.run_s, compiled.run_s
                )
            if du_count == du_counts[-1]:
                naive_time, naive_extent = _recompute_arm(
                    recompute.replace(executor="naive"), repeats
                )
                compiled_time, compiled_extent = _recompute_arm(
                    recompute.replace(executor="compiled"), repeats
                )
                result.require(
                    naive_extent == compiled_extent,
                    "recompute: compiled extent diverged from naive",
                )
                row["recompute_naive_s"] = naive_time
                row["recompute_compiled_s"] = compiled_time
                row["recompute_speedup"] = ratio(naive_time, compiled_time)
            result.add(du_count, **row)
        if profile_dir is not None:
            profile_dir = Path(profile_dir)
            profile_dir.mkdir(parents=True, exist_ok=True)
            for mode in MODES:
                _profiled(
                    lambda m=mode: _recompute_arm(
                        recompute.replace(executor=m), 1
                    ),
                    profile_dir / f"recompute_{mode}.prof",
                )
                _profiled(
                    lambda m=mode: run_arm(
                        config.replace(executor=m), stream(du_counts[-1])
                    ),
                    profile_dir / f"maintain_memory_{mode}.prof",
                )
    finally:
        set_executor_mode(previous_mode)
    return result
