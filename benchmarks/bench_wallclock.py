"""ABL-12 benchmark: wall-clock kernel — compiled plans vs the naive oracle.

Every other figure in this repository reports *virtual* seconds from the
calibrated cost model; this one reports **wall-clock** seconds measured
with ``time.perf_counter``.  The two lanes are deliberately separate:
the compiled kernel (:mod:`repro.relational.plan`) is not allowed to
move a single virtual-clock number — simulated costs are charged from
the cost model, never from the Python evaluator — so its entire effect
is the real time the reproduction takes to run.  The naive arm runs
the test-side oracle in its place (``tests/kernel_oracle.naive_kernel``).

Arms, per point of the data-update sweep:

* **maintain / memory** — the fig12-shaped DU stream (mixed
  insert/delete updates over the 6-way join view) driven to quiescence
  on the in-process backend, once per kernel;
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

Two entry points:

* **pytest** (the CI smoke): ``pytest benchmarks/bench_wallclock.py``
  runs the ablation once at smoke scale, saves
  ``benchmarks/results/abl-12-wallclock.json`` and asserts the
  acceptance bar above on both the ``memory`` and ``sqlite`` backends.

* **CLI** (the profiling lane)::

      PYTHONPATH=src python benchmarks/bench_wallclock.py \
          [--full] [--profile] [--profile-dir benchmarks/results/profiles]

  writes the same figure JSON plus a consolidated ``BENCH_wallclock.json``
  at the repository root (figure + interpreter + commit metadata), and
  with ``--profile`` re-runs the heaviest arms under ``cProfile``,
  dumping ``*.prof`` (binary) and ``*.txt`` (top-30 cumulative)
  artifacts for each kernel.

Wall-clock numbers jitter with machine load; the regression guard
(``check_regression.py``) recognizes the figure's ``timebase: wall``
marker and applies a generous tolerance band instead of the exact
check used for virtual-time figures.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import platform
import pstats
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).parent
REPO_ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
SUMMARY_PATH = REPO_ROOT / "BENCH_wallclock.json"

# Run as a script, sys.path[0] is this directory: the naive arm's oracle
# lives in the repository's test package.
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from repro.experiments import (  # noqa: E402
    ArmResult,
    Experiment,
    FigureResult,
    WarehouseConfig,
    run_arm,
    testbed,
)
from repro.experiments.runner import ratio  # noqa: E402
from tests.kernel_oracle import MODES, kernel  # noqa: E402

#: the acceptance bar asserted on the join-heavy (recompute) arm
MIN_JOIN_HEAVY_SPEEDUP = 2.0


def _best_of(
    repeats: int, config: WarehouseConfig, stream, mode: str
) -> ArmResult:
    """Run the arm ``repeats`` times on ``mode``'s kernel; keep the
    fastest drive to quiescence (every repeat's outcome is identical —
    deterministic virtual time)."""
    with kernel(mode):
        return min(
            (run_arm(config, stream) for _ in range(repeats)),
            key=lambda arm: arm.run_s,
        )


def _recompute_arm(config: WarehouseConfig, repeats: int, mode: str):
    """Time a full 6-way join recompute of the view (join-heavy arm)."""
    with kernel(mode):
        (manager,) = testbed.Testbed.build(config).manager.view_managers()
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
            testbed.du_stream(
                config, du_count, 0.05, 0.01,
                seed=workload_seed, key_domain=key_domain,
            )
        ]

    recompute = config.replace(tuples_per_relation=recompute_tuples)
    for du_count in du_counts:
        row: dict[str, float] = {}
        for backend in backends:
            naive, compiled = (
                _best_of(
                    repeats,
                    config.replace(backend=backend),
                    stream(du_count),
                    mode,
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
                f"({naive.cost} -> {compiled.cost}) — the kernel "
                "must not perturb simulated costs",
            )
            row[f"{backend}_naive_s"] = naive.run_s
            row[f"{backend}_compiled_s"] = compiled.run_s
            row[f"{backend}_maintain_speedup"] = ratio(
                naive.run_s, compiled.run_s
            )
        if du_count == du_counts[-1]:
            (naive_time, naive_extent), (compiled_time, compiled_extent) = (
                _recompute_arm(recompute, repeats, mode) for mode in MODES
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
                lambda m=mode: _recompute_arm(recompute, 1, m),
                profile_dir / f"recompute_{mode}.prof",
            )
            _profiled(
                lambda m=mode: _best_of(1, config, stream(du_counts[-1]), m),
                profile_dir / f"maintain_memory_{mode}.prof",
            )
    return result


def _row():
    """ABL-12's experiment row, declared here: this lane is the only
    entry point of the naive-vs-compiled arm."""
    return Experiment(
        "abl-wallclock",
        run_wallclock_ablation,
        quick={
            "config": WarehouseConfig(tuples_per_relation=250),
            "du_counts": (30, 60),
            "recompute_tuples": 2500,
            "repeats": 2,
        },
        full={
            "config": WarehouseConfig(tuples_per_relation=400),
            "du_counts": (60, 120),
            "recompute_tuples": 4000,
            "repeats": 3,
        },
        timebase="wall",
        bar=_speedup_bar,
    )


def profile_listing(profile_dir: Path) -> list[str]:
    """The ``.prof`` files in ``profile_dir``, sorted: repository-relative
    inside the repository, absolute outside it."""
    listed = []
    for path in profile_dir.glob("*.prof"):
        path = path.resolve()
        inside = path.is_relative_to(REPO_ROOT)
        listed.append(str(path.relative_to(REPO_ROOT) if inside else path))
    return sorted(listed)


def _run(full_scale: bool, profile_dir=None):
    return _row()(full_scale, profile_dir=profile_dir)


def _speedup_bar(result) -> None:
    heaviest = result.points[-1].values
    assert heaviest["recompute_speedup"] >= MIN_JOIN_HEAVY_SPEEDUP, (
        f"join-heavy arm speedup {heaviest['recompute_speedup']:.2f}x "
        f"below the {MIN_JOIN_HEAVY_SPEEDUP:.0f}x acceptance bar"
    )
    # The maintenance arms must at minimum not be slowed down by plan
    # compilation (generous floor: wall clock jitters in CI).
    for backend in ("memory", "sqlite"):
        assert heaviest[f"{backend}_maintain_speedup"] >= 0.7


def test_wallclock_kernel(benchmark, save_result):
    from benchmarks._helpers import full_scale

    result = benchmark.pedantic(
        _run,
        args=(full_scale(),),
        rounds=1,
        iterations=1,
    )
    save_result(result)
    # Extent + committed set + virtual-clock identity between the
    # compiled kernel and the naive oracle is folded into the bit.
    _row().check(result)


# ----------------------------------------------------------------------
# CLI (profiling lane)
# ----------------------------------------------------------------------


def _current_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--full",
        action="store_true",
        help="paper-scale sweep (default: CI smoke scale)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="re-run the heaviest arms under cProfile and dump "
        "*.prof/*.txt artifacts",
    )
    parser.add_argument(
        "--profile-dir",
        type=Path,
        default=RESULTS_DIR / "profiles",
        help="where --profile drops its artifacts",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=SUMMARY_PATH,
        help="consolidated wall-clock summary JSON (repo root)",
    )
    parser.add_argument(
        "--no-assert",
        action="store_true",
        help="record numbers without enforcing the speedup bar",
    )
    arguments = parser.parse_args(argv)

    result = _run(
        arguments.full,
        profile_dir=arguments.profile_dir if arguments.profile else None,
    )
    print(result.table())

    RESULTS_DIR.mkdir(exist_ok=True)
    stem = result.figure_id.lower()
    (RESULTS_DIR / f"{stem}.txt").write_text(result.table() + "\n")
    (RESULTS_DIR / f"{stem}.json").write_text(result.to_json() + "\n")

    profiles = (
        profile_listing(arguments.profile_dir) if arguments.profile else []
    )
    summary = {
        "figure": json.loads(result.to_json()),
        "commit": _current_commit(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "scale": "full" if arguments.full else "smoke",
        "profiles": profiles,
        "timebase": "wall",
    }
    arguments.output.write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    print(f"\nwrote {arguments.output}")
    if profiles:
        print("profiles: " + ", ".join(profiles))

    if not arguments.no_assert:
        try:
            _row().check(result)
        except AssertionError as error:
            print(f"FAIL: {error}", file=sys.stderr)
            return 1
        heaviest = result.points[-1].values
        print(
            f"join-heavy arm: {heaviest['recompute_speedup']:.2f}x "
            f"(bar {MIN_JOIN_HEAVY_SPEEDUP:.0f}x) — ok"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
