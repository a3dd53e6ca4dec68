"""Smoke test of the measurement spine (not part of tier-1).

    python -m pytest benchmarks/spine -q

One tiny sweep (``--scale 0.05 --repeats 2 --trace``) is run once and
inspected; the rest checks the driver's contract, the guard rails and
that the traced pass leaves the program exactly as it found it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SPINE = Path(__file__).resolve().parent
ROOT = SPINE.parents[1]
RUN = [sys.executable, str(SPINE / "run.py")]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from benchmarks.spine import layers, run, tracing  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_cli(*arguments: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*RUN, *arguments], cwd=cwd, capture_output=True, text=True,
        timeout=600,
    )


@pytest.fixture(scope="module")
def sweep(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("spine") / "result.json"
    done = run_cli(
        "--scale", "0.05", "--repeats", "2", "--trace", "--out", str(out)
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return {"path": out, "result": json.loads(out.read_text())}


def test_benchmark_json_names_what_the_harness_measures():
    from benchmarks.spine import workloads

    assert BENCHMARK["paths"] == ["benchmarks/spine"]
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (name, workloads.WORKLOADS[name].why) for name in run.GATED
    ]
    assert tuple(workloads.WORKLOADS) == run.WORKLOADS
    assert {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
    } == run.END_TO_END
    assert [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    ] == list(layers.PER_LAYER)


def test_every_metric_of_every_workload_is_reported(sweep):
    result = sweep["result"]
    assert tuple(result["workloads"]) == run.WORKLOADS
    for stamp in ("commit", "dirty", "cores", "python", "machine",
                  "start_method", "scale", "seed", "repeats"):
        assert stamp in result
    for name, summary in result["workloads"].items():
        assert summary["ops_failed"] == 0, (name, summary["problems"])
        # Repeat 0 ran untraced and then traced: no problem reported
        # about the two passes disagreeing on its digest.
        assert summary["problems"] == []
        assert len(summary["digests"]) == 2
        for metric, unit in run.END_TO_END.items():
            for rows in ("end_to_end", "as_measured"):
                row = summary[rows][metric]
                assert row["unit"] == unit
                assert len(row["raw"]) == 2 and row["median"] > 0, (
                    name, metric)
        for row in summary["box_speed"].values():
            assert len(row["raw"]) == 2 and row["median"] > 0
        for metric, unit, _better in layers.PER_LAYER:
            row = summary["per_layer"][metric]
            assert row["unit"] == unit and len(row["raw"]) == 1, (name, metric)


def test_layers_show_on_the_workloads_built_for_them(sweep):
    def layer(workload: str, metric: str) -> float:
        summary = sweep["result"]["workloads"][workload]
        return summary["per_layer"][metric]["median"]

    assert layer("du_burst", "maintenance.compensate.pending_mean") > 1
    assert layer("du_burst", "core.detect_correct.calls") == 0
    assert layer("du_local", "maintenance.compensate.pending_mean") == 0
    assert layer("du_local", "maintenance.selfmaint.hit_ratio") > 0
    assert layer("du_local", "cache.serve.calls") > 0
    assert layer("sc_mixed", "core.detect_correct.calls") > 0
    assert layer("sqlite_parallel", "core.parallel.self_s") > 0
    assert layer("sqlite_parallel", "sources.execute.busy_s") > 0
    assert layer("shard_procs", "core.runtime.execute_s") > 0
    for workload in run.WORKLOADS:
        durable = workload == "shard_durable"
        assert (layer(workload, "recovery.journal.appends") > 0) == durable
        assert (layer(workload, "recovery.bytes_per_update") > 0) == durable
        if workload != "shard_procs":
            assert layer(workload, "core.runtime.execute_s") == 0


def test_spans_nest_and_children_fit_their_parent(sweep):
    for workload in run.WORKLOADS:
        trace = json.loads(
            (SPINE / "results" / f"trace-{workload}.json").read_text()
        )
        for phase in ("maintain", "read_replay"):
            spans = trace[phase]["spans"]
            assert spans, (workload, phase)
            for index, span in enumerate(spans):
                _name, start, end, parent, _unit, child_s, _leaves = span
                assert child_s <= end - start + 1e-6
                assert parent < index
                if parent >= 0:
                    assert spans[parent][1] <= start <= end <= spans[parent][2]
            for row in trace[phase]["totals"].values():
                assert -1e-6 <= row["self_s"] <= row["total_s"] + 1e-6


def test_install_rebinds_everything_and_uninstall_restores_it():
    import repro.maintenance.vm
    import repro.relational.executor
    import repro.sources.source
    import repro.views.manager
    from repro.core.scheduler import DynoScheduler

    execute = repro.relational.executor.execute
    step = vars(DynoScheduler)["step"]
    binders = (
        repro.views.manager, repro.maintenance.vm, repro.sources.source
    )
    undo = tracing.install(tracing.Tracer())
    try:
        assert not tracing.restored(undo)
        assert vars(DynoScheduler)["step"] is not step
        for module in binders:
            assert module.execute is not execute
            assert module.execute.__wrapped__ is execute
    finally:
        tracing.uninstall(undo)
    assert tracing.restored(undo)
    assert vars(DynoScheduler)["step"] is step
    assert repro.relational.executor.execute is execute
    for module in binders:
        assert module.execute is execute


def test_the_yardstick_samples_scales_and_leaves_no_timer():
    import signal
    import time

    from benchmarks.spine.reference import EVERY_S, Reference, undisturbed

    before = signal.getsignal(signal.SIGALRM)
    yardstick = Reference()
    yardstick.start()
    deadline = time.perf_counter() + 4 * EVERY_S
    while time.perf_counter() < deadline:
        pass
    taken = yardstick.take()
    yardstick.stop()
    assert taken["samples"] >= 3 and taken["speed"] > 0
    assert 0 < taken["cpu_s"] and 0 < taken["wall_s"] < 4 * EVERY_S
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert undisturbed(2.0, 2.0, 0.5) == (1.0, 1.0)  # all of it compute
    assert undisturbed(3.0, 1.0, 0.5) == (2.5, 0.5)  # 2 s of it waiting
    assert undisturbed(1.0, 2.0, 0.5) == (0.5, 1.0)  # workers beside it


def test_compare_accepts_a_twin_and_refuses_another_scale(sweep, tmp_path):
    compare = [sys.executable, str(SPINE / "compare.py")]
    twin = subprocess.run(
        [*compare, str(sweep["path"]), str(sweep["path"])],
        capture_output=True, text=True,
    )
    assert twin.returncode == 0, twin.stdout + twin.stderr
    assert twin.stdout.count(" ok ") == len(run.END_TO_END) * len(
        run.WORKLOADS
    )
    other = dict(sweep["result"], scale=1.0)
    other_path = tmp_path / "other.json"
    other_path.write_text(json.dumps(other))
    refused = subprocess.run(
        [*compare, str(sweep["path"]), str(other_path)],
        capture_output=True, text=True,
    )
    assert refused.returncode == 2 and "scale" in refused.stderr


@pytest.mark.parametrize("trace", ["0", "1"])
def test_driver_contract(trace):
    done = run_cli(
        "--workload", "du_local", "--seed", "7", "--seconds", "1",
        "--trace", trace, "--scale", "0.05",
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {
        name: row["unit"] for name, row in last["metrics"].items()
    } == {metric["name"]: metric["unit"] for metric in declared}


def test_a_wedged_child_is_killed_counted_and_cleaned_up():
    done = run_cli(
        "--workload", "shard_procs", "--seconds", "1", "--trace", "0",
        "--scale", "0.05", "--child-timeout", "0.05",
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert last["correct"] is False
    assert last["failed"] == last["attempted"] >= 1
    assert not list((SPINE / "results").glob("tmp-*"))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        SPINE, tmp_path / "benchmarks" / "spine",
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/spine/run.py", "--workload", "du_burst",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
