"""``naive_kernel()`` binds the oracle everywhere the shipped kernel runs.

The equivalence runs (``test_executor_mode_invariance``, the sqlite
schema parity module, the ABL-12 bench) compare whole warehouse runs on
the compiled kernel with runs under ``tests/kernel_oracle.naive_kernel``.
That comparison means something only if nothing under the binding still
reaches the compiled kernel: not a compiled plan through a module that
imported ``execute`` by name, and not one through ``BagProbe``.
"""

from collections import Counter

from repro.core.strategies import PESSIMISTIC
from repro.experiments.testbed import build_testbed
from repro.relational import executor
from repro.relational.plan import CompiledPlan
from tests import kernel_oracle
from tests.kernel_oracle import bindings_of, naive_kernel


def _counting(monkeypatch) -> Counter:
    """Count entries into the compiled kernel and into the oracle."""
    entries: Counter = Counter()

    def counted(name, function):
        def entry(*arguments, **keywords):
            entries[name] += 1
            return function(*arguments, **keywords)

        return entry

    for method in ("execute", "execute_rows"):
        monkeypatch.setattr(
            CompiledPlan,
            method,
            counted(f"plan.{method}", vars(CompiledPlan)[method]),
        )
    monkeypatch.setattr(
        kernel_oracle,
        "execute_naive",
        counted("execute_naive", kernel_oracle.execute_naive),
    )
    return entries


def _run() -> None:
    """DUs racing schema changes, through compensation and the cache."""
    testbed = build_testbed(
        PESSIMISTIC, tuples_per_relation=30, snapshot_cache=True
    )
    testbed.engine.schedule_workload(
        testbed.random_du_workload(
            24, start=0.0, interval=0.01, seed=11, key_domain=8
        )
    )
    testbed.engine.schedule_workload(
        testbed.schema_change_workload(2, start=0.05, interval=0.07, seed=12)
    )
    testbed.run()
    assert testbed.check_consistency()


def test_a_run_under_the_oracle_never_enters_the_compiled_kernel(
    monkeypatch,
):
    entries = _counting(monkeypatch)
    shipped = executor.execute
    with naive_kernel():
        _run()
    assert entries["execute_naive"] > 0
    assert entries["plan.execute"] == entries["plan.execute_rows"] == 0
    # every binding is the shipped kernel's again
    assert not bindings_of(kernel_oracle.execute_naive)
    assert executor.execute is shipped


def test_the_same_run_enters_every_counted_path_unbound(monkeypatch):
    """The counts above are not vacuous: unbound, the run reaches the
    compiled kernel through ``execute`` and through ``BagProbe``."""
    entries = _counting(monkeypatch)
    _run()
    assert entries["execute_naive"] == 0
    assert entries["plan.execute"] > 0
    assert entries["plan.execute_rows"] > 0
