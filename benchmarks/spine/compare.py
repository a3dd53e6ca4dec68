"""Compare two sweep results of ``run.py``, pair by pair.

    python3 benchmarks/spine/compare.py A.json B.json

One row per (end-to-end metric, workload): both medians, B/A, and a
verdict against the bound ``BENCHMARK.json`` fixes for the metric.
Repeat ``i`` of A and repeat ``i`` of B ran the same inputs, so the
verdict is taken on the per-repeat ratios ``B[i] / A[i]`` (base A),
which leaves out how much one update stream differs from the next:

``ok``          the median ratio is no worse than 1 by more than the bound
``worse``       it is
``unresolved``  the ratios' spread (quartile distance) is wider than the
                bound, so their median decides nothing -- unless every
                repeat of B reads better than its twin in A (``ok``), or
                every one worse and the median beyond the bound
                (``worse``)

Results measured at different ``scale``, ``cores``, ``seed``,
``repeats`` or python minor version are not comparable and are refused
(exit 2) rather than compared under a wider tolerance.  Exit 1 on any
``worse``.  Two sweeps taken minutes apart differ by this box's drift as
well as by the code: to compare two commits, alternate their sweeps.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MUST_MATCH = ("scale", "cores", "seed", "repeats")


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[float, str]:
    """``(median of B[i] / A[i], verdict)`` for one metric of one
    workload; repeats that failed on either side leave no pair."""
    ratios = [y / x for x, y in zip(a["raw"], b["raw"])]
    if len(ratios) < 2 or len(a["raw"]) != len(b["raw"]):
        return b["median"] / a["median"], "unresolved"
    centre = statistics.median(ratios)
    gains = [r - 1 if better == "higher" else 1 - r for r in ratios]
    worse_by = -statistics.median(gains)
    first, _, third = statistics.quantiles(ratios, n=4)
    if third - first > bound:
        if all(gain > 0 for gain in gains):
            return centre, "ok"
        if all(gain < 0 for gain in gains) and worse_by > bound:
            return centre, "worse"
        return centre, "unresolved"
    return centre, "worse" if worse_by > bound else "ok"


def python_minor(result: dict) -> str:
    return ".".join(result["python"].split(".")[:2])


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    differing = [key for key in MUST_MATCH if a[key] != b[key]]
    if python_minor(a) != python_minor(b):
        differing.append("python")
    if differing:
        print(
            "refusing to compare: "
            + ", ".join(f"{key} {a[key]!r} vs {b[key]!r}" for key in differing),
            file=sys.stderr,
        )
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(f"A = {argv[0]} at {a['commit'][:12]}{'+' if a['dirty'] else ''}")
    print(f"B = {argv[1]} at {b['commit'][:12]}{'+' if b['dirty'] else ''}")
    print(
        f"{'metric':20} {'workload':16} {'A median':>14} {'B median':>14} "
        f"{'B/A':>8} {'bound':>6}  verdict"
    )
    worse = 0
    for metric in benchmark["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for workload in a["workloads"]:
            row_a = a["workloads"][workload]["end_to_end"][name]
            row_b = b["workloads"][workload]["end_to_end"][name]
            ratio, outcome = verdict(row_a, row_b, metric["better"], bound)
            worse += outcome == "worse"
            print(
                f"{name:20} {workload:16} {row_a['median']:14.4f} "
                f"{row_b['median']:14.4f} {ratio:8.3f} {bound:6.2f}  "
                f"{outcome} ({metric['better']} is better; base A, "
                f"{row_a['unit']})"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
