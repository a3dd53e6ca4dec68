"""Cost model arithmetic and calibration targets.

A maintenance query is priced the way the engine charges it:
``SimEngine.query_request_cost`` (an IN-list probe by its values, any
other read by the rows it scans) plus ``transfer_cost`` (the rows
returned)."""

import pytest

from repro.relational.predicate import TRUE, Comparison, InPredicate, attr
from repro.relational.query import RelationRef, SPJQuery
from repro.relational.schema import RelationSchema
from repro.relational.types import AttributeType
from repro.sim.costs import CostModel
from repro.sim.effects import SourceQuery
from repro.sim.engine import SimEngine
from repro.sources.source import DataSource
from tests.builders import free_cost_model

R = RelationSchema.of("R", [("k", AttributeType.INT)])
KEY = attr("R", "k")


def charged(cost: CostModel, rows: int, selection=TRUE) -> float:
    """What the engine charges one query selecting ``selection`` from a
    relation of ``rows`` rows (keys ``0 .. rows - 1``)."""
    engine = SimEngine(cost)
    source = engine.add_source(DataSource("s"))
    source.create_relation(R, [(key,) for key in range(rows)])
    effect = SourceQuery(
        "s",
        SPJQuery(
            relations=(RelationRef("s", "R", "R"),),
            projection=(KEY,),
            selection=selection,
        ),
    )
    return engine.query_request_cost(effect) + engine.transfer_cost(
        engine.evaluate_query(effect)
    )


def probe(cost: CostModel, values: int, rows: int) -> float:
    """An IN-list probe of ``values`` keys answered by ``rows`` rows."""
    return charged(cost, rows, InPredicate(KEY, frozenset(range(values))))


def scan(cost: CostModel, rows: int) -> float:
    """A full-relation read of ``rows`` rows (view adaptation)."""
    return charged(cost, rows)


class TestDerivedCosts:
    def test_probe_query(self):
        cost = CostModel(
            query_base=1.0,
            query_per_probe_value=0.1,
            query_per_result_tuple=0.01,
            query_per_scanned_tuple=100.0,  # a probe scans nothing
        )
        assert probe(cost, 10, 5) == pytest.approx(1.0 + 1.0 + 0.05)

    def test_scan_query(self):
        cost = CostModel(
            query_base=1.0,
            query_per_scanned_tuple=0.001,
            query_per_result_tuple=0.01,
        )
        # every row is scanned, ten are returned
        assert charged(cost, 1000, Comparison(KEY, "<", 10)) == (
            pytest.approx(1.0 + 1.0 + 0.1)
        )

    def test_refresh(self):
        cost = CostModel(refresh_base=0.5, refresh_per_tuple=0.1)
        assert cost.refresh(10) == pytest.approx(1.5)

    def test_detection_and_correction(self):
        cost = CostModel(
            detection_per_node=0.1,
            detection_per_edge=0.2,
            correction_per_element=0.3,
        )
        assert cost.detection(2, 3) == pytest.approx(0.8)
        assert cost.correction(2, 3) == pytest.approx(1.5)


class TestFactories:
    def test_free_model_is_all_zero(self):
        cost = free_cost_model()
        assert probe(cost, 100, 100) == 0.0
        assert scan(cost, 100) == 0.0
        assert cost.refresh(100) == 0.0
        assert cost.vs_rewrite == 0.0

    def test_calibrated_du_regime(self):
        """One DU maintenance over the 6-way view ≈ 0.2 virtual s."""
        cost = CostModel.calibrated(2000)
        du_cost = 5 * probe(cost, 1, 1) + cost.refresh(1)
        assert 0.15 < du_cost < 0.35

    def test_calibrated_sc_regime(self):
        """One SC maintenance ≈ 20-30 virtual s, dominated by scans."""
        n = 2000
        cost = CostModel.calibrated(n)
        sc_cost = (
            cost.vs_rewrite
            + 6 * scan(cost, n)
            + cost.va_base
            + cost.va_per_tuple * n
        )
        assert 18 < sc_cost < 32

    def test_calibration_scale_invariant(self):
        """Virtual times should not depend on the testbed scale."""
        small = CostModel.calibrated(100)
        for n in (100, 1000, 10_000):
            cost = CostModel.calibrated(n)
            sc_cost = cost.vs_rewrite + 6 * scan(cost, n)
            assert sc_cost == pytest.approx(
                small.vs_rewrite + 6 * scan(small, 100), rel=0.01
            )

    def test_sc_dwarfs_du(self):
        """The asymmetry Figures 9-12 rest on."""
        n = 2000
        cost = CostModel.calibrated(n)
        du = 5 * probe(cost, 1, 1)
        sc = cost.vs_rewrite + 6 * scan(cost, n)
        assert sc > 50 * du
