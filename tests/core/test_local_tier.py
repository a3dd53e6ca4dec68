"""The local-answer tier is written once: one function resolves and
prices a local hit for both schedulers, and one gap rule (Theorem 1)
guards both stores."""

import ast
from pathlib import Path

import pytest

import repro
from repro.core.parallel import ParallelScheduler
from repro.core.strategies import PESSIMISTIC
from repro.relational.predicate import InPredicate, attr
from repro.relational.query import RelationRef, SPJQuery
from repro.sim.effects import SourceQuery
from repro.sources.errors import BrokenQueryError
from repro.sources.messages import DropAttribute
from repro.views.umq import MaintenanceUnit
from tests.builders import drain_events
from tests.recorders import record_local_serves
from tests.conftest import build_bookstore

PACKAGE = Path(repro.__file__).parent
#: the read front end has a ``serve`` of its own (versioned reads, not
#: maintenance queries); the harness drives it
QUERY_PATH = [
    path
    for path in sorted(PACKAGE.rglob("*.py"))
    if path.relative_to(PACKAGE).parts[0] not in ("experiments", "frontend")
]


def _functions_mentioning(*attributes: str) -> list[str]:
    """``file:function`` of every function under the query path that
    reads ``<something>.<attribute>``."""
    return [
        f"{path.relative_to(PACKAGE).as_posix()}:{function.name}"
        for path in QUERY_PATH
        for function in ast.walk(ast.parse(path.read_text()))
        if isinstance(function, ast.FunctionDef)
        and any(
            isinstance(node, ast.Attribute) and node.attr in attributes
            for node in ast.walk(function)
        )
    ]


def test_one_function_consults_the_local_stores():
    assert _functions_mentioning("serve") == ["sim/engine.py:serve_local"]


def test_one_function_prices_a_local_hit():
    assert _functions_mentioning("cache_serve", "aux_serve") == [
        "sim/engine.py:serve_local"
    ]


def _run_serial(manager, process) -> None:
    manager.engine.run_process(process)


def _run_parallel(manager, process) -> None:
    scheduler = ParallelScheduler(manager, PESSIMISTIC, workers=2)
    worker = scheduler.pool.idle_worker()
    unit = MaintenanceUnit(list(manager.umq.messages()))
    worker.assign(unit, process, manager.engine.clock.now, [])
    scheduler._advance_process(worker)
    drain_events(manager.engine)


@pytest.mark.parametrize(
    "run", [_run_serial, _run_parallel], ids=["serial", "parallel"]
)
def test_sc_in_the_gap_drops_both_entries_and_ships_the_probe(run):
    """Both stores hold a copy that could answer the probe; a schema
    change commits; the probe must miss both (entries dropped, both
    invalidations counted) and travel, so in-exec detection sees the
    broken query (Theorem 1)."""
    engine, manager = build_bookstore()
    library = engine.sources["library"]
    aux = manager.install_self_maintenance()
    aux.seed_from_source(library)
    cache = engine.install_snapshot_cache()
    probe = SPJQuery(
        relations=(RelationRef("library", "Catalog", "C"),),
        projection=(attr("C", "Title"), attr("C", "Review")),
        selection=InPredicate(attr("C", "Title"), frozenset({"Databases"})),
    )
    cache.store(library, probe, library.execute(probe))
    assert (len(aux), len(cache)) == (1, 1)

    library.commit(DropAttribute("Catalog", "Review"), at=engine.clock.now)
    outcome = []

    def process():
        try:
            answer = yield SourceQuery("library", probe, cacheable=True)
            outcome.append(answer)
        except BrokenQueryError as broken:
            outcome.append(broken)

    served = record_local_serves(engine)
    run(manager, process())

    metrics = engine.metrics
    assert (len(aux), len(cache)) == (0, 0)
    assert (metrics.aux_invalidations_sc, metrics.aux_misses) == (1, 1)
    assert (metrics.cache_invalidations_sc, metrics.cache_misses) == (1, 1)
    assert metrics.saved_round_trips == 0
    assert metrics.source_round_trips == 1
    assert metrics.broken_queries == 1
    assert len(outcome) == 1 and isinstance(outcome[0], BrokenQueryError)
    assert served == []
