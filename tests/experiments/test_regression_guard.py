"""``benchmarks/check_regression.py``: two timebase bands, and a
trajectory that says where each number was measured."""

import json

import pytest

from benchmarks import check_regression as guard


def _figure(speedup: float, **extra) -> dict:
    return {
        "figure_id": "ABL-X",
        "series_names": ["speedup"],
        "points": [{"x": 4, "values": {"speedup": speedup}}],
        "consistent": True,
        **extra,
    }


def test_virtual_figures_are_compared_exactly():
    baseline = _figure(2.0, timebase="virtual")
    assert not guard.check_figure("abl-x", baseline, _figure(2.0), 0.75)
    assert not guard.check_figure("abl-x", baseline, _figure(2.5), 0.75)
    (failure,) = guard.check_figure("abl-x", baseline, _figure(1.99), 0.75)
    assert "regressed" in failure


def test_wall_figures_get_the_wall_band():
    baseline = _figure(2.0, timebase="wall")
    assert not guard.check_figure("abl-x", baseline, _figure(0.6), 0.75)
    assert guard.check_figure("abl-x", baseline, _figure(0.4), 0.75)


def test_a_baseline_without_a_timebase_is_an_error():
    with pytest.raises(guard.BaselineError, match="timebase"):
        guard.check_figure("abl-x", _figure(2.0), _figure(2.0), 0.75)


def test_trajectory_keeps_the_commit_a_value_was_measured_at(
    tmp_path, monkeypatch
):
    monkeypatch.setattr(guard, "WALL_SUMMARY_PATHS", ())
    monkeypatch.setattr(guard, "_current_commit", lambda: "new")
    results = tmp_path / "results"
    results.mkdir()
    trajectory = tmp_path / "BENCH_ablations.json"

    def commits(**speedups) -> dict:
        for name, speedup in speedups.items():
            (results / f"abl-{name}.json").write_text(
                json.dumps(_figure(speedup, timebase="virtual"))
            )
        guard.write_trajectory(results, trajectory)
        records = json.loads(trajectory.read_text())["ablations"]
        return {record["name"]: record["commit"] for record in records}

    assert commits(a=2.0, b=3.0) == {"abl-a": "new", "abl-b": "new"}
    monkeypatch.setattr(guard, "_current_commit", lambda: "newer")
    assert commits(a=2.0, b=3.5) == {"abl-a": "new", "abl-b": "newer"}
