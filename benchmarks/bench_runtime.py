"""ABL-13 benchmark: multi-core shard runtime — inline vs process-parallel.

Two entry points:

* **pytest** (the CI smoke): ``pytest benchmarks/bench_runtime.py`` runs
  the ablation once, saves ``benchmarks/results/abl-13-runtime.json``
  and asserts the identity half of the acceptance bar unconditionally —
  extents, committed ``(source, seqno)`` sets and per-shard virtual
  clocks byte-identical between the inline coordinator and every
  process arm, including the hardened strategy/fault/crash/worker
  configurations.

* **CLI**::

      PYTHONPATH=src python benchmarks/bench_runtime.py [--full] \
          [--processes 0 2 4]

  writes the same figure JSON plus a consolidated ``BENCH_runtime.json``
  at the repository root (figure + interpreter + cores + commit
  metadata).

The **speedup** half of the bar (>= 1.8x aggregate wall-clock at 4
processes) needs hardware: it is asserted only when the machine exposes
>= 4 cores AND the run is full scale (wall-clock jitter at smoke scale
drowns the fixed fork/IPC overhead).  On >= 2 cores at full scale a
relaxed 1.25x bar applies at 2 processes; on fewer cores the numbers
are recorded with an explanatory note — a single-core container cannot
demonstrate multi-core speedup, only identity.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).parent
REPO_ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
SUMMARY_PATH = REPO_ROOT / "BENCH_runtime.json"

#: the acceptance bar at 4 worker processes on >= 4 cores (full scale)
MIN_SPEEDUP_4P = 1.8
#: the relaxed bar at 2 worker processes on >= 2 cores (full scale)
MIN_SPEEDUP_2P = 1.25


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _row():
    """ABL-13's row of the experiment table: its sweep shape at either
    scale and the identity half of its bar."""
    from repro.experiments.table import BY_ID

    return BY_ID["abl-runtime"]


def _run(full_scale: bool, process_counts=None):
    overrides = (
        {}
        if process_counts is None
        else {"process_counts": tuple(process_counts)}
    )
    return _row()(full_scale, **overrides)


def _speedup_at(result, processes: int) -> float | None:
    for point in result.points:
        if point.x == processes:
            return point.values.get("speedup")
    return None


def _assert_acceptance(result, full_scale: bool) -> None:
    # Identity between every process arm and the inline oracle
    # (including the hardened arms) is folded into the bit —
    # asserted unconditionally: determinism needs no hardware.
    _row().check(result)
    cores = _cores()
    if not full_scale:
        result.notes.append(
            "speedup bar not enforced at smoke scale (wall-clock jitter)"
        )
        return
    if cores >= 4 and _speedup_at(result, 4) is not None:
        speedup = _speedup_at(result, 4)
        assert speedup >= MIN_SPEEDUP_4P, (
            f"4-process speedup {speedup:.2f}x below the "
            f"{MIN_SPEEDUP_4P}x acceptance bar on {cores} cores"
        )
    elif cores >= 2 and _speedup_at(result, 2) is not None:
        speedup = _speedup_at(result, 2)
        assert speedup >= MIN_SPEEDUP_2P, (
            f"2-process speedup {speedup:.2f}x below the relaxed "
            f"{MIN_SPEEDUP_2P}x bar on {cores} cores"
        )
    else:
        result.notes.append(
            f"speedup bar not enforceable on {cores} core(s): "
            "identity asserted, timings recorded"
        )


def test_runtime_speedup(benchmark, save_result):
    from benchmarks._helpers import full_scale

    result = benchmark.pedantic(
        _run,
        args=(full_scale(),),
        rounds=1,
        iterations=1,
    )
    _assert_acceptance(result, full_scale())
    save_result(result)


# ----------------------------------------------------------------------
# CLI
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
        "--processes",
        type=int,
        nargs="+",
        default=None,
        help="process counts to sweep (0 = inline; default 0 1 2 4)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=SUMMARY_PATH,
        help="consolidated runtime summary JSON (repo root)",
    )
    parser.add_argument(
        "--no-assert",
        action="store_true",
        help="record numbers without enforcing any bar",
    )
    arguments = parser.parse_args(argv)

    result = _run(arguments.full, process_counts=arguments.processes)
    if not arguments.no_assert:
        try:
            _assert_acceptance(result, arguments.full)
        except AssertionError as error:
            print(result.table())
            print(f"FAIL: {error}", file=sys.stderr)
            return 1
    print(result.table())

    RESULTS_DIR.mkdir(exist_ok=True)
    stem = result.figure_id.lower()
    (RESULTS_DIR / f"{stem}.txt").write_text(result.table() + "\n")
    (RESULTS_DIR / f"{stem}.json").write_text(result.to_json() + "\n")

    summary = {
        "figure": json.loads(result.to_json()),
        "commit": _current_commit(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cores": _cores(),
        "scale": "full" if arguments.full else "smoke",
        "timebase": "wall",
    }
    arguments.output.write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    print(f"\nwrote {arguments.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
