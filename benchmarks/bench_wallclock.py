"""ABL-12 benchmark: wall-clock kernel — compiled plans vs naive executor.

Two entry points:

* **pytest** (the CI smoke): ``pytest benchmarks/bench_wallclock.py``
  runs the ablation once at smoke scale, saves
  ``benchmarks/results/abl-12-wallclock.json`` and asserts the PR's
  acceptance bar — the compiled kernel is >= 2x the naive executor on
  the join-heavy recompute arm, and every compiled arm's extent,
  committed ``(source, seqno)`` set and final virtual clock are
  byte-identical to the naive oracle, on both the ``memory`` and
  ``sqlite`` backends.

* **CLI** (the profiling lane)::

      PYTHONPATH=src python benchmarks/bench_wallclock.py \
          [--full] [--profile] [--profile-dir benchmarks/results/profiles]

  writes the same figure JSON plus a consolidated ``BENCH_wallclock.json``
  at the repository root (figure + interpreter + commit metadata), and
  with ``--profile`` re-runs the heaviest arms under ``cProfile``,
  dumping ``*.prof`` (binary) and ``*.txt`` (top-30 cumulative)
  artifacts for each executor.

Wall-clock numbers jitter with machine load; the regression guard
(``check_regression.py``) recognizes the figure's ``timebase: wall``
marker and applies a generous tolerance band instead of the exact
check used for virtual-time figures.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).parent
REPO_ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
SUMMARY_PATH = REPO_ROOT / "BENCH_wallclock.json"

#: the acceptance bar asserted on the join-heavy (recompute) arm
MIN_JOIN_HEAVY_SPEEDUP = 2.0


def _row():
    """ABL-12's experiment row, declared here: this lane is the only
    entry point of the naive-vs-compiled arm."""
    from repro.experiments import (
        Experiment,
        WarehouseConfig,
        run_wallclock_ablation,
    )

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

    profiles = []
    if arguments.profile:
        profiles = sorted(
            str(path.relative_to(REPO_ROOT))
            for path in arguments.profile_dir.glob("*.prof")
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
