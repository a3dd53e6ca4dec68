"""FigureResult scaffolding."""

from repro.experiments.runner import FigureResult, SeriesPoint


def make_result() -> FigureResult:
    result = FigureResult(
        figure_id="FIG-X",
        title="demo",
        x_label="n",
        series_names=["a", "b"],
    )
    result.add(1, a=1.0, b=2.0)
    result.add(2, a=3.0, b=4.0)
    return result


def test_series_extraction():
    result = make_result()
    assert result.series("a") == [1.0, 3.0]
    assert result.xs() == [1, 2]


def test_table_renders_all_points():
    result = make_result()
    table = result.table()
    assert "FIG-X" in table
    assert "1.00" in table and "4.00" in table


def test_missing_value_renders_dash():
    result = make_result()
    result.points.append(SeriesPoint(3, {"a": 5.0}))
    assert "-" in result.table()


def test_notes_and_warnings_rendered():
    result = make_result()
    result.notes.append("a note")
    result.consistent = False
    table = result.table()
    assert "note: a note" in table
    assert "WARNING" in table


def test_checked_folds_reports():
    """``FigureResult.require`` is the fold every runner puts its
    identity and convergence checks through: a failed check clears the
    consistency bit and appends its note."""
    result = make_result()
    result.require(True, "arm a diverged")
    result.require(False, "arm b diverged")
    result.require(True, "arm c diverged")
    assert not result.consistent
    assert result.notes == ["arm b diverged"]
    assert "note: arm b diverged" in result.table()


def test_checked_all_good_keeps_consistent():
    """A passing check changes nothing."""
    result = make_result()
    before = result.to_json()
    result.require(True, "never shown")
    assert result.consistent and result.notes == []
    assert result.to_json() == before


def test_arm_sweep_holds_every_variant_to_its_reference_arm():
    """A variant that is a pure fast path passes; one whose outcome
    differs (here: other initial data) clears the consistency bit and
    says which arm, at which x."""
    from repro.experiments import WarehouseConfig
    from repro.experiments.runner import arm_sweep
    from repro.experiments.testbed import du_stream

    config = WarehouseConfig(tuples_per_relation=40)
    result = arm_sweep(
        "T-1",
        "a test sweep",
        "dus",
        (4,),
        lambda count: [du_stream(config, count, 0.0, 0.5, seed=1)],
        {
            "g": (
                config,
                {
                    "cache": {"snapshot_cache": True},
                    "reseeded": {"seed": config.seed + 1},
                },
            )
        },
        (
            ("trips", "g", "off.trips"),
            ("trips_saved", "g", ("off.trips", "cache.trips")),
        ),
    )
    assert result.series_names == ["trips", "trips_saved"]
    assert result.xs() == [4]
    assert result.points[0].values["trips"] > 0
    assert not result.consistent
    assert result.notes == ["g reseeded dus=4: diverged from the oracle arm"]
