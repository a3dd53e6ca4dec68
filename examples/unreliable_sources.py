#!/usr/bin/env python3
"""Unreliable sources: a crash-and-recover fault plan under Dyno.

A two-source join view is maintained while source ``parts`` crashes for
two virtual seconds mid-stream and the wrapper link from ``orders``
delays and drops messages.  The scheduler retries with backoff,
quarantines the crashed source when retries exhaust, keeps maintaining
everything that does not depend on it, and drains the backlog on
recovery — converging to exactly the fault-free extent.

Run:  PYTHONPATH=src python examples/unreliable_sources.py
"""

from repro import (
    CrashWindow,
    DataUpdate,
    DyDaSystem,
    FaultPlan,
    LinkFault,
    PESSIMISTIC,
    RelationSchema,
    RetryPolicy,
    TransientFault,
)

ORDERS = RelationSchema.of("Orders", ["OID", "Part"])
PARTS = RelationSchema.of("Parts", ["Part", "Price"])


def build(fault_plan=None, retry_policy=None) -> DyDaSystem:
    system = DyDaSystem(
        strategy=PESSIMISTIC,
        fault_plan=fault_plan,
        retry_policy=retry_policy,
    )
    orders = system.add_source("orders")
    parts = system.add_source("parts")
    orders.create_relation(ORDERS, [("o1", "bolt")])
    parts.create_relation(PARTS, [("bolt", "0.10")])
    system.define_view(
        "CREATE VIEW OrderCosts AS "
        "SELECT O.OID, O.Part, P.Price FROM orders.Orders O, parts.Parts P "
        "WHERE O.Part = P.Part"
    )
    catalog = ["nut", "washer", "screw", "rivet"]
    for index, part in enumerate(catalog):
        at = 0.4 * index
        system.schedule(
            at, "parts", DataUpdate.insert(PARTS, [(part, "0.05")])
        )
        system.schedule(
            at + 0.1,
            "orders",
            DataUpdate.insert(ORDERS, [(f"o{index + 2}", part)]),
        )
    return system


def main() -> None:
    # ------------------------------------------------------------------
    # 1. The fault-free reference run.
    # ------------------------------------------------------------------
    baseline = build()
    baseline.run()
    print(f"fault-free: {baseline.check().summary()}")
    print(f"fault-free maintenance ended at t={baseline.now:.3f}\n")

    # ------------------------------------------------------------------
    # 2. The same workload under a crash-and-recover fault plan.
    # ------------------------------------------------------------------
    plan = FaultPlan(
        # `parts` is down for two virtual seconds mid-stream; every
        # query inside the window fails with a recovery hint.
        crashes=(CrashWindow("parts", start=0.3, end=2.3),),
        # ...and flaky for its first two attempts even when up.
        transients=(
            TransientFault("parts", 0),
            TransientFault("parts", 1, kind="timeout", timeout=0.4),
        ),
        # The link from `orders` delays one message and drops another
        # (redelivered late — committed updates are never lost).
        link_faults=(
            LinkFault("orders", 1, delay=0.5),
            LinkFault("orders", 2, drops=1, redelivery_delay=0.3),
        ),
    )
    policy = RetryPolicy(max_attempts=3, base_backoff=0.05, jitter=0.25)
    system = build(fault_plan=plan, retry_policy=policy)
    system.run()

    stats, metrics = system.stats, system.metrics
    print(f"faulty:     {system.check().summary()}")
    print(f"faulty maintenance ended at t={system.now:.3f}")
    print(f"injected faults: {system.fault_stats.summary()}")
    print(
        f"retries={metrics.retries}  "
        f"backoff={metrics.backoff_time:.3f}s  "
        f"transient failures={metrics.transient_failures}"
    )
    print(
        f"quarantines={len(stats.quarantine_events)}  "
        f"resumed={stats.resumed_sources}  "
        f"deferred units={stats.deferred_units}"
    )
    print(
        f"false broken-query flags avoided={stats.false_flags_avoided}  "
        f"genuine broken-query flags={stats.genuine_broken_flags}  "
        f"corrections={stats.corrections}"
    )
    for at, source, until in stats.quarantine_events:
        print(f"  t={at:.3f}: quarantined {source!r} until t={until:.3f}")

    # ------------------------------------------------------------------
    # 3. The point: same extent, honestly larger cost.
    # ------------------------------------------------------------------
    same = sorted(system.extent().rows()) == sorted(
        baseline.extent().rows()
    )
    print(f"\nextents identical to fault-free run: {same}")
    print(f"faults made the run slower: {system.now > baseline.now}")
    assert same and system.check().consistent


if __name__ == "__main__":
    main()
