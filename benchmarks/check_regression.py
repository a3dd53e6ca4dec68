"""Benchmark regression guard.

Compares the freshly produced ``benchmarks/results/*.json`` figures
against the checked-in ``benchmarks/baselines/*.json`` and fails when a
speedup series regressed beyond tolerance or a run lost its
consistency bit.  Run by CI after the benchmark smoke steps::

    python benchmarks/check_regression.py [--wall-tolerance 0.75]

Rules, per figure present in *both* directories:

* every series whose name ends in ``speedup`` must stay within
  tolerance of the baseline at every shared x (new >= old * (1 -
  tolerance)).  The tolerance follows the baseline figure's
  ``timebase`` key (every row of the experiment table declares one):
  ``"wall"`` figures (``perf_counter`` measurements — abl-2, abl-5,
  abl-12-wallclock, abl-13-runtime) get the generous
  ``--wall-tolerance`` band because CI-runner load makes them jitter;
  ``"virtual"`` figures are cost-model deterministic and are held to
  (near-)exact reproduction.  A baseline declaring neither is an error;
* ``consistent`` must not flip from true to false.

Figures without a baseline are reported but never fail the check (new
benchmarks land before their baseline does); a baseline without a
result means CI stopped producing a guarded figure, which *does* fail.
A missing or empty baseline directory, or an unreadable baseline/result
file, exits nonzero with a clear error instead of silently passing —
an accidentally deleted baseline must not disable the guard.  The
summary lists exactly which ablations were compared.

As a side effect the checker consolidates every ``abl-*.json`` result
into ``BENCH_ablations.json`` at the repository root — one record per
ablation run (name, key metric and its value at the heaviest x,
consistency bit, and the commit that value was *measured* at: a record
whose value did not move keeps its commit) — which CI uploads as the
perf-trajectory artifact.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).parent
RESULTS_DIR = BENCH_DIR / "results"
BASELINES_DIR = BENCH_DIR / "baselines"
TRAJECTORY_PATH = BENCH_DIR.parent / "BENCH_ablations.json"

#: repo-root wall-clock lane summaries folded into the trajectory (each
#: wraps its figure under a ``"figure"`` key; produced by the
#: bench_wallclock.py / bench_runtime.py CLIs).  Their figure JSONs in
#: ``results/`` are ALSO guarded per-figure against ``baselines/`` at
#: the ``--wall-tolerance`` band (their ``timebase: wall`` marker picks
#: the band); this list only consolidates the summaries' trajectory
#: records.
WALL_SUMMARY_PATHS = (
    BENCH_DIR.parent / "BENCH_wallclock.json",
    BENCH_DIR.parent / "BENCH_runtime.json",
)


class BaselineError(Exception):
    """A baseline (or its fresh result) cannot be read — fail the
    check rather than silently skipping the guard."""


def _load(path: Path) -> dict:
    try:
        data = json.loads(path.read_text())
    except OSError as exc:
        raise BaselineError(f"{path}: unreadable ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise BaselineError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise BaselineError(
            f"{path}: expected a figure object, got {type(data).__name__}"
        )
    return data


def _speedup_series(figure: dict) -> list[str]:
    return [
        name
        for name in figure.get("series_names", [])
        if name.endswith("speedup")
    ]


def _points_by_x(figure: dict) -> dict:
    return {
        point["x"]: point["values"] for point in figure.get("points", [])
    }


#: virtual-time series are deterministic replays of the cost model; a
#: hair of float slack keeps the exact check robust across interpreters
VIRTUAL_EPSILON = 1e-9


def figure_tolerance(
    name: str, baseline: dict, wall_tolerance: float
) -> float:
    """Pick the band for one figure from its declared timebase."""
    timebase = baseline.get("timebase")
    if timebase == "wall":
        return wall_tolerance
    if timebase == "virtual":
        return VIRTUAL_EPSILON
    raise BaselineError(
        f"{name}: baseline declares timebase {timebase!r}, expected "
        "'virtual' or 'wall'"
    )


def check_figure(
    name: str, baseline: dict, current: dict, wall_tolerance: float
) -> list[str]:
    tolerance = figure_tolerance(name, baseline, wall_tolerance)
    failures: list[str] = []
    if baseline.get("consistent", True) and not current.get(
        "consistent", True
    ):
        failures.append(f"{name}: consistency bit flipped to false")
    base_points = _points_by_x(baseline)
    current_points = _points_by_x(current)
    for series in _speedup_series(baseline):
        for x, base_values in base_points.items():
            if series not in base_values:
                continue
            if x not in current_points or series not in current_points[x]:
                failures.append(
                    f"{name}: point x={x} series {series!r} disappeared"
                )
                continue
            old = base_values[series]
            new = current_points[x][series]
            floor = old * (1.0 - tolerance)
            if new < floor:
                failures.append(
                    f"{name}: {series} at x={x} regressed "
                    f"{old:.2f} -> {new:.2f} "
                    f"(floor {floor:.2f} at tolerance {tolerance:.0%})"
                )
    return failures


def _current_commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=BENCH_DIR.parent,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def write_trajectory(results_dir: Path, output_path: Path) -> int:
    """Consolidate ``abl-*.json`` results into one trajectory file.

    Each record carries the figure's *key metric*: the first speedup
    series (evaluated at the heaviest x), or — for figures with no
    speedup series — the last series at the heaviest x.  A record
    equal to the one ``output_path`` already holds keeps that record's
    ``commit``, so the stamp says where the number was measured, not
    where the guard last ran.  Returns the number of records written.
    """
    commit = _current_commit()
    records = []
    measured = {}
    if output_path.exists():
        for entry in _load(output_path).get("ablations", []):
            measured[entry["name"]] = entry

    def record_of(name: str, figure: dict) -> dict | None:
        points = figure.get("points", [])
        if not points:
            return None
        speedups = _speedup_series(figure)
        series_names = figure.get("series_names", [])
        key = speedups[0] if speedups else (
            series_names[-1] if series_names else None
        )
        heaviest = points[-1]
        entry = {
            "name": name,
            "figure_id": figure.get("figure_id", name),
            "key_metric": key,
            "value": heaviest["values"].get(key),
            "x": heaviest["x"],
            "consistent": figure.get("consistent", True),
            "commit": commit,
        }
        if figure.get("timebase") is not None:
            entry["timebase"] = figure["timebase"]
        before = measured.get(name)
        if before and all(
            before.get(key) == entry[key] for key in ("value", "x")
        ):
            entry["commit"] = before.get("commit", commit)
        return entry

    for result_path in sorted(results_dir.glob("abl-*.json")):
        entry = record_of(result_path.stem, _load(result_path))
        if entry is not None:
            records.append(entry)
    # Wall-clock lane summaries live at the repo root, outside the
    # results glob; fold their wrapped figures in so the trajectory
    # covers every lane (skipping any figure the glob already saw —
    # the CLIs write both the per-figure JSON and the summary).
    seen = {entry["figure_id"] for entry in records}
    for summary_path in WALL_SUMMARY_PATHS:
        if not summary_path.exists():
            continue
        figure = _load(summary_path).get("figure")
        if not isinstance(figure, dict):
            raise BaselineError(
                f"{summary_path}: summary lacks a 'figure' object"
            )
        if figure.get("figure_id") in seen:
            continue
        entry = record_of(summary_path.stem, figure)
        if entry is not None:
            records.append(entry)
    output_path.write_text(
        json.dumps({"ablations": records}, indent=2, sort_keys=True)
        + "\n"
    )
    return len(records)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--wall-tolerance",
        type=float,
        default=0.75,
        help="allowed fractional speedup drop for figures declaring "
        "timebase=wall (perf_counter measurements jitter hard on shared "
        "CI runners; 0.75 still fails when a supposed 2x+ speedup "
        "collapses to parity)",
    )
    parser.add_argument(
        "--results",
        type=Path,
        default=RESULTS_DIR,
        help="directory of freshly produced figure JSONs",
    )
    parser.add_argument(
        "--baselines",
        type=Path,
        default=BASELINES_DIR,
        help="directory of checked-in baseline figure JSONs",
    )
    parser.add_argument(
        "--trajectory",
        type=Path,
        default=TRAJECTORY_PATH,
        help="consolidated ablation trajectory file to (re)write",
    )
    arguments = parser.parse_args(argv)

    try:
        written = write_trajectory(arguments.results, arguments.trajectory)
    except BaselineError as error:
        print(f"ERROR: {error}", file=sys.stderr)
        return 2
    print(
        f"wrote {written} ablation record(s) to {arguments.trajectory}"
    )

    if not arguments.baselines.is_dir():
        print(
            f"ERROR: baseline directory {arguments.baselines} does not "
            "exist — the regression guard cannot run",
            file=sys.stderr,
        )
        return 2
    baselines = sorted(arguments.baselines.glob("*.json"))
    if not baselines:
        print(
            f"ERROR: no baselines under {arguments.baselines}; refusing "
            "to pass an empty guard (commit benchmarks/baselines/*.json "
            "or point --baselines at them)",
            file=sys.stderr,
        )
        return 2
    failures: list[str] = []
    compared: list[str] = []
    for baseline_path in baselines:
        result_path = arguments.results / baseline_path.name
        if not result_path.exists():
            failures.append(
                f"{baseline_path.stem}: baseline exists but CI produced "
                f"no {result_path.name}"
            )
            continue
        try:
            figure_failures = check_figure(
                baseline_path.stem,
                _load(baseline_path),
                _load(result_path),
                arguments.wall_tolerance,
            )
        except BaselineError as error:
            failures.append(str(error))
            continue
        failures.extend(figure_failures)
        compared.append(baseline_path.stem)
        status = "FAIL" if figure_failures else "ok"
        print(f"{baseline_path.stem}: {status}")
    for result_path in sorted(arguments.results.glob("*.json")):
        if not (arguments.baselines / result_path.name).exists():
            print(f"{result_path.stem}: no baseline (unguarded)")
    print(
        f"compared {len(compared)} ablation(s): "
        + (", ".join(compared) if compared else "none")
    )
    if failures:
        print()
        for failure in failures:
            print(f"REGRESSION: {failure}")
        return 1
    print(f"{len(compared)} figure(s) within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
