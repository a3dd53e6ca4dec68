"""The measurement spine's one command.

Driver form (what ``BENCHMARK.json`` names)::

    python3 benchmarks/spine/run.py --workload du_burst --seed 5 \\
        --seconds 15 --trace 0

repeats one workload -- every repeat in a fresh child process -- until
``--seconds`` are used up, prints every metric by name with its unit and
ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics (medians
over the repeats, in seconds of the undisturbed sizing box: see
``reference.py``); ``--trace 1`` follows every untraced child with a
traced one on the same inputs and reports the per-layer metrics, and
writes the last traced child's spans to
``benchmarks/spine/results/trace-<workload>.json``.

Repeat ``i`` of a run generates its inputs from ``seed * 1000 + i``: the
reported median is over as many different update streams as there are
repeats, so one stream's luck with schema-change placement (which alone
moves ``sc_mixed`` by a quarter) does not decide the run's value.

Sweep form (no ``--workload``)::

    PYTHONPATH=src python -m benchmarks.spine.run [--seed N] \\
        [--repeats K] [--scale F] [--trace]

runs all six workloads ``K`` times, interleaved A B C ... A B C ... so
that drift hits every workload alike, then one traced pass over repeat
0's inputs, and writes ``benchmarks/spine/results/spine-<time>.json``
for ``compare.py``.

End-to-end numbers always come from untraced children.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SPINE = Path(__file__).resolve().parent
ROOT = SPINE.parents[1]
RESULTS = SPINE / "results"
# Run as a script, sys.path[0] is this directory: import the package.
sys.path[:0] = [str(ROOT)]

from benchmarks.spine.layers import PER_LAYER  # noqa: E402

WORKLOADS = (
    "du_burst", "du_local", "sc_mixed", "sqlite_parallel",
    "shard_durable", "shard_procs",
)
#: the workloads ``BENCHMARK.json`` names, whose metrics carry a bound:
#: one process that computes.  ``shard_durable`` waits on some 3400
#: fsyncs of a shared disk and ``shard_procs`` runs three processes on
#: two vCPUs; the same inputs read up to twice as slow from one minute
#: to the next, so the sweep measures them and no bound rests on them.
GATED = WORKLOADS[:4]
END_TO_END = {
    "setup_s": "s",
    "updates_per_s": "updates/s",
    "cpu_ms_per_update": "ms",
    "reads_per_s": "reads/s",
    "peak_rss_mb": "MiB",
}
#: one common multiplier on the full-size update counts: a maintain phase
#: takes 1-2 s here where the full-size counts (``--scale 1``) take
#: 6-12 s, so a run of 32 s is a median over 9-14 update streams
DEFAULT_SCALE = 0.25
#: a child that has not finished by then is killed and counted as failed
CHILD_TIMEOUT_S = 120.0
#: ops charged to a child that died before it could count its own
NOMINAL_OPS = 400_000


def spawn(
    workload: str, seed: int, instance: int, scale: float, traced: bool,
    timeout: float,
) -> dict:
    """Run repeat ``instance`` in a child; never hangs, leaves no files."""
    RESULTS.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=RESULTS)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + [path for path in [env.get("PYTHONPATH")] if path]
    )
    # Set and dict order, and with it the run's speed, follow the string
    # hash seed: same-input children differ by a tenth without this.
    env["PYTHONHASHSEED"] = "0"
    request = {
        "workload": workload, "seed": seed * 1000 + instance,
        "scale": scale, "traced": traced, "tmp": tmp,
        "spawned_at": time.time(),
    }
    child = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.spine.child", json.dumps(request)],
        cwd=ROOT, env=env, text=True, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = child.communicate(timeout=timeout)
        if child.returncode != 0:
            result = {"error": f"exit {child.returncode}: {err[-2000:]}"}
        else:
            result = json.loads(out.splitlines()[-1])
    except subprocess.TimeoutExpired:
        result = {"error": f"no result within {timeout:g} s"}
    finally:
        # The child leads its own process group: shard workers a dead or
        # wedged child left behind go with it.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.communicate()
        shutil.rmtree(tmp, ignore_errors=True)
    return dict(result, instance=instance)


def summarise(
    workload: str, seed: int, scale: float, runs: list[dict]
) -> dict:
    """Medians, raw values, op counts and the verdict of one workload."""
    good = [run for run in runs if "error" not in run]
    untraced = [run for run in good if run["per_layer"] is None]
    traced = [run for run in good if run["per_layer"] is not None]
    nominal = max(
        (run["ops_attempted"] for run in good), default=NOMINAL_OPS
    )
    problems = [run["error"] for run in runs if "error" in run]
    problems += [failure for run in good for failure in run["failures"]]
    digests: dict[int, str] = {}
    for run in good:
        first = digests.setdefault(run["instance"], run["digest"])
        if first != run["digest"]:
            problems.append(
                f"repeat {run['instance']}: same inputs, other outputs "
                f"({first} then {run['digest']})"
            )
    goldens = json.loads((SPINE / "goldens.json").read_text())
    if seed == goldens["seed"]:
        golden = goldens["digests"].get(f"{scale:g}", {}).get(workload, [])
        for instance, digest in digests.items():
            if instance < len(golden) and digest != golden[instance]:
                problems.append(
                    f"repeat {instance}: digest {digest} is not the "
                    f"golden {golden[instance]}"
                )
    if any(run["restored"] is False for run in traced):
        problems.append("the traced pass left a wrapper installed")
    summary = {
        "ops_attempted": sum(run["ops_attempted"] for run in good)
        + nominal * (len(runs) - len(good)),
        "ops_failed": sum(run["ops_failed"] for run in good)
        + nominal * (len(runs) - len(good)),
        "problems": problems,
        "digests": [digests[instance] for instance in sorted(digests)],
        "end_to_end": {
            name: _median_row(
                [run["end_to_end"][name] for run in untraced], unit
            )
            for name, unit in END_TO_END.items()
        },
        # The same numbers before the yardstick was applied, and the
        # box's speed (1 = the sizing box undisturbed) it was applied with.
        "as_measured": {
            name: _median_row(
                [run["as_measured"][name] for run in untraced], unit
            )
            for name, unit in END_TO_END.items()
        },
        "box_speed": {
            phase: _median_row(
                [run["box_speed"][phase] for run in untraced], "ratio"
            )
            for phase in ("setup", "maintain", "read_replay")
        },
    }
    overhead = (
        [
            statistics.median(run["maintain_s"] for run in traced)
            / statistics.median(run["maintain_s"] for run in untraced)
        ]
        if traced and untraced
        else []
    )
    summary["per_layer"] = {
        name: _median_row(
            overhead
            if name == "trace.overhead_ratio"
            else [run["per_layer"][name] for run in traced],
            unit,
        )
        for name, unit, _better in PER_LAYER
    }
    return summary


def _median_row(values: list[float], unit: str) -> dict:
    return {
        "median": statistics.median(values) if values else 0.0,
        "unit": unit,
        "raw": values,
    }


def report(workload: str, summary: dict) -> None:
    rows = {**summary["end_to_end"], **summary["per_layer"]}
    for name, row in rows.items():
        if row["raw"]:
            print(
                f"{workload:16} {name:38} {row['median']:16.6f} "
                f"{row['unit']:10} n={len(row['raw'])}"
            )
    for name, row in summary["as_measured"].items():
        if row["raw"] and name != "peak_rss_mb":
            print(
                f"{workload:16} {'as measured: ' + name:38} "
                f"{row['median']:16.6f} {row['unit']:10}"
            )
    for phase, row in summary["box_speed"].items():
        if row["raw"]:
            print(
                f"{workload:16} {'box speed: ' + phase:38} "
                f"{row['median']:16.6f} {row['unit']:10}"
            )
    print(
        f"{workload:16} ops_attempted={summary['ops_attempted']} "
        f"ops_failed={summary['ops_failed']} "
        f"digests={[digest[:12] for digest in summary['digests']]}"
    )
    for problem in summary["problems"]:
        print(f"{workload:16} PROBLEM: {problem}")


def write_trace(workload: str, runs: list[dict]) -> None:
    traced = [run for run in runs if run.get("trace")]
    if traced:
        RESULTS.mkdir(exist_ok=True)
        (RESULTS / f"trace-{workload}.json").write_text(
            json.dumps(traced[-1]["trace"])
        )


def stamp(args) -> dict:
    """Where, on what and with which settings a result was measured."""

    def git(*command: str) -> str:
        done = subprocess.run(
            ["git", *command], cwd=ROOT, capture_output=True, text=True
        )
        return done.stdout.strip() if done.returncode == 0 else ""

    return {
        "commit": git("rev-parse", "HEAD") or "unknown",
        "dirty": bool(git("status", "--porcelain")),
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "start_method": multiprocessing.get_start_method(),
        "scale": args.scale,
        "seed": args.seed,
        "repeats": args.repeats,
    }


def drive(args) -> int:
    """One workload for ``--seconds``; the driver's contract."""
    started = time.perf_counter()
    runs: list[dict] = []
    longest = 0.0
    while True:
        began = time.perf_counter()
        for traced in (False, True) if args.trace else (False,):
            runs.append(
                spawn(
                    args.workload, args.seed, len(runs) // (1 + args.trace),
                    args.scale, traced, args.child_timeout,
                )
            )
        # Stop before a repeat that would overrun the budget.
        longest = max(longest, time.perf_counter() - began)
        if time.perf_counter() - started + longest > args.seconds:
            break
    summary = summarise(args.workload, args.seed, args.scale, runs)
    report(args.workload, summary)
    write_trace(args.workload, runs)
    rows = summary["per_layer" if args.trace else "end_to_end"]
    print(
        json.dumps(
            {
                "correct": not summary["problems"]
                and summary["ops_failed"] == 0,
                "attempted": summary["ops_attempted"],
                "failed": summary["ops_failed"],
                "metrics": {
                    name: {"value": row["median"], "unit": row["unit"]}
                    for name, row in rows.items()
                },
            }
        )
    )
    return 0


def sweep(args) -> int:
    """All workloads, interleaved, then one traced pass; one result file."""
    runs: dict[str, list[dict]] = {name: [] for name in WORKLOADS}
    passes = [(repeat, False) for repeat in range(args.repeats)]
    passes += [(0, True)] * bool(args.trace)
    for instance, traced in passes:
        for name in WORKLOADS:
            runs[name].append(
                spawn(
                    name, args.seed, instance, args.scale, traced,
                    args.child_timeout,
                )
            )
    result = dict(stamp(args), workloads={})
    for name in WORKLOADS:
        summary = summarise(name, args.seed, args.scale, runs[name])
        report(name, summary)
        write_trace(name, runs[name])
        result["workloads"][name] = summary
    RESULTS.mkdir(exist_ok=True)
    out = Path(
        args.out or RESULTS / f"spine-{time.strftime('%Y%m%dT%H%M%S')}.json"
    )
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}")
    failed = any(
        summary["problems"] or summary["ops_failed"]
        for summary in result["workloads"].values()
    )
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0)
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    parser.add_argument("--child-timeout", type=float, default=CHILD_TIMEOUT_S)
    parser.add_argument("--out", help="sweep result file")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    return drive(args) if args.workload else sweep(args)


if __name__ == "__main__":
    sys.exit(main())
