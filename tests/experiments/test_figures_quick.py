"""Quick-scale runs of every figure harness, asserting the paper shapes.

These use a small testbed (200-500 tuples per relation) so the whole
module runs in well under a minute; the benchmark harness runs the
full-scale versions.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import (
    WarehouseConfig,
    run_fig08,
    run_fig09,
    run_fig10,
    run_fig11,
    run_fig12,
)
from repro.experiments.ablations import (
    run_blind_merge_ablation,
    run_starvation_study,
)
from benchmarks.bench_ablations import run_graph_scaling_ablation

SCALE = 300  # tuples per relation for quick runs
QUICK = WarehouseConfig(tuples_per_relation=SCALE)

#: FIG-8..12 at exactly the scales below, recorded at commit 159e12e
#: (the last one with per-builder knob lists) through
#: ``FigureResult.to_json`` — the virtual-clock figures are the
#: reproduction's ground truth and no refactor may move them
GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "figures_quick.json").read_text()
)


FIGURES = {
    "fig08": lambda: run_fig08(QUICK, du_counts=(50, 100, 200)),
    "fig09": lambda: run_fig09(QUICK),
    "fig10": lambda: run_fig10(
        QUICK, intervals=(0.0, 17.0, 41.0), du_count=60, sc_count=6
    ),
    "fig11": lambda: run_fig11(QUICK, sc_counts=(3, 9), du_count=60),
    # sc_interval=8 keeps the SC stream inside the DU window for both
    # points, as in the paper's full-scale setup.
    "fig12": lambda: run_fig12(QUICK, du_counts=(100, 200), sc_interval=8.0),
}


@pytest.fixture(scope="module")
def figures():
    """Each quick figure, run once for the shape and the golden test."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = FIGURES[name]()
        return cache[name]

    return get


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_figure_matches_golden(figures, name):
    result = json.loads(figures(name).to_json())
    golden = GOLDEN[name]
    assert result["consistent"] and result["series_names"] == golden[
        "series_names"
    ]
    assert [point["x"] for point in result["points"]] == [
        point["x"] for point in golden["points"]
    ]
    for point, expected in zip(result["points"], golden["points"]):
        assert point["values"] == pytest.approx(
            expected["values"], rel=0, abs=1e-9
        )


class TestFig08:
    def test_detection_overhead_negligible_and_linear(self, figures):
        result = figures("fig08")
        assert result.consistent
        with_detection = result.series("with_detection")
        without = result.series("without_detection")
        for with_value, without_value in zip(with_detection, without):
            # overhead < 1% of the total (paper: "almost unobservable")
            assert with_value - without_value < 0.01 * without_value + 0.01
        # linear growth: cost at 200 ≈ 4x cost at 50 (within 25%)
        ratio = with_detection[2] / with_detection[0]
        assert 3.0 < ratio < 5.0


class TestFig09:
    def test_bar_pattern(self, figures):
        result = figures("fig09")
        assert result.consistent
        du_sc = result.points[0].values
        sc_sc = result.points[1].values
        # pessimistic ≈ no-concurrency in both workloads
        assert du_sc["pessimistic"] == pytest.approx(
            du_sc["no_concurrency"], rel=0.05
        )
        assert sc_sc["pessimistic"] == pytest.approx(
            sc_sc["no_concurrency"], rel=0.05
        )
        # optimistic pays the abort, dramatically so for SC+SC
        assert du_sc["optimistic"] > du_sc["pessimistic"]
        assert sc_sc["optimistic"] > 1.2 * sc_sc["pessimistic"]
        sc_gap = sc_sc["optimistic"] - sc_sc["pessimistic"]
        du_gap = du_sc["optimistic"] - du_sc["pessimistic"]
        assert sc_gap > 10 * du_gap  # SC aborts dwarf DU aborts


class TestFig10:
    def test_interval_shape(self, figures):
        result = figures("fig10")
        assert result.consistent
        for name in ("pessimistic", "optimistic"):
            series = dict(zip(result.xs(), result.series(name)))
            aborts = dict(
                zip(result.xs(), result.series(f"abort_of_{name}"))
            )
            # interval 0: everything corrected at once, (almost) no
            # aborts — the optimistic run pays one cheap DU-probe break
            assert aborts[0.0] <= 0.5
            # peak at the middle interval
            assert series[17.0] > series[0.0]
            assert series[17.0] > series[41.0]
            # tail: no abort cost once SCs stop interfering
            assert aborts[41.0] == pytest.approx(0.0, abs=1.0)


class TestFig11:
    def test_abort_grows_with_sc_count(self, figures):
        result = figures("fig11")
        assert result.consistent
        for name in ("pessimistic", "optimistic"):
            aborts = result.series(f"abort_of_{name}")
            totals = result.series(name)
            assert aborts[1] > aborts[0]
            assert totals[1] > totals[0]


class TestFig12:
    def test_abort_flat_in_du_count(self, figures):
        result = figures("fig12")
        assert result.consistent
        for name in ("pessimistic", "optimistic"):
            aborts = result.series(f"abort_of_{name}")
            totals = result.series(name)
            # totals grow with DUs, abort cost stays in the same band
            assert totals[1] > totals[0]
            assert abs(aborts[1] - aborts[0]) < 0.5 * max(
                aborts[0], aborts[1], 1.0
            )


class TestAblations:
    def test_blind_merge_loses_intermediate_states(self):
        result = run_blind_merge_ablation(
            QUICK, du_count=40, sc_count=4, sc_interval=8.0
        )
        assert result.consistent
        dyno = result.points[0].values
        blind = result.points[1].values
        assert dyno["view_refreshes"] > blind["view_refreshes"]

    def test_graph_scaling_is_near_linear_in_nm(self):
        result = run_graph_scaling_ablation(
            sizes=((100, 5), (400, 20))
        )
        build_times = result.series("build_ms")
        edge_counts = result.series("edges")
        # 4x updates and 4x SCs -> ~16x edges (O(mn))
        assert 8 < edge_counts[1] / edge_counts[0] < 32
        assert build_times[1] > build_times[0]

    def test_starvation_study_always_converges(self):
        result = run_starvation_study(
            WarehouseConfig(tuples_per_relation=200),
            intervals=(1.0, 20.0),
            stream_length=5,
            du_count=20,
        )
        assert result.consistent
        for point in result.points:
            assert point.values["maintained"] > 0
