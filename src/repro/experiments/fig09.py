"""Figure 9 — the cost of a broken query.

Two conflicting workloads (Section 6.3):

* ``one DU + one SC`` — a data update immediately followed by a
  drop-attribute schema change that conflicts with the DU's maintenance
  queries;
* ``one SC + one SC`` — a drop-attribute schema change followed by a
  conflicting rename-relation schema change.

Three settings each:

* ``no_concurrency`` — the updates are spaced far apart, so neither
  maintenance overlaps the other commit: the minimum cost;
* ``pessimistic`` — pre-exec detection discovers the conflict before
  starting doomed work and reorders/merges;
* ``optimistic`` — maintenance starts immediately, the query breaks,
  the partial work is aborted and redone after correction.

Expected shape: for ``one SC + one SC`` the optimistic bar towers over
the other two (aborting schema-change maintenance wastes tens of
seconds); for ``one DU + one SC`` the gap is small (a DU abort is
cheap).  Pessimistic ≈ no-concurrency in both workloads.
"""

from __future__ import annotations

from ..core.sharding import WorkloadSpec
from ..core.strategies import OPTIMISTIC, PESSIMISTIC
from ..sources.workload import Workload
from .config import WarehouseConfig
from .runner import FigureResult, run_arm
from .testbed import (
    fixed_drop_attribute,
    fixed_rename_relation,
    make_du_workload,
)

#: spacing that guarantees no overlap (≫ one SC maintenance time)
NO_CONCURRENCY_SPACING = 200.0


def conflict_workload(kind: str, spacing: float, key_range: int) -> Workload:
    """The two conflicting updates of one bar group, ``spacing`` apart."""
    workload = Workload()
    if kind == "du_sc":
        du_intent = make_du_workload(key_range, 1, 0.0, 1.0).items[0].intent
        workload.add(0.0, "src1", du_intent)
        # Drop a non-key attribute of R6: the last relation the DU sweep
        # probes, so an optimistic break wastes the most probe work.
        workload.add(spacing, "src3", fixed_drop_attribute(5))
    elif kind == "sc_sc":
        workload.add(0.0, "src1", fixed_drop_attribute(0))
        # Rename R6, scanned last during the first SC's adaptation.
        workload.add(spacing, "src3", fixed_rename_relation(5))
    else:  # pragma: no cover
        raise ValueError(kind)
    return workload


def run_fig09(
    config: WarehouseConfig = WarehouseConfig(),
    conflict_spacing: float = 0.0,
) -> FigureResult:
    """``conflict_spacing`` = 0 commits both updates at the same instant
    (they flood the UMQ together, the paper's conflicting setup)."""
    result = FigureResult(
        figure_id="FIG-9",
        title="Cost of broken query (virtual s, total incl. abort)",
        x_label="workload",
        series_names=["no_concurrency", "pessimistic", "optimistic"],
    )
    for kind, label in (
        ("du_sc", "One DU + One SC"),
        ("sc_sc", "One SC + One SC"),
    ):
        arms = {
            name: run_arm(
                config.replace(strategy=strategy),
                [
                    WorkloadSpec(
                        conflict_workload,
                        dict(
                            kind=kind,
                            spacing=spacing,
                            key_range=config.tuples_per_relation,
                        ),
                    )
                ],
            )
            for name, strategy, spacing in (
                ("no_concurrency", PESSIMISTIC, NO_CONCURRENCY_SPACING),
                ("pessimistic", PESSIMISTIC, conflict_spacing),
                ("optimistic", OPTIMISTIC, conflict_spacing),
            )
        }
        if not all(arm.consistent for arm in arms.values()):
            result.consistent = False
        result.add(
            label,
            **{
                name: arm.metrics.maintenance_cost
                for name, arm in arms.items()
            },
        )
        result.notes.append(
            f"{label}: optimistic abort cost "
            f"{arms['optimistic'].metrics.abort_cost:.2f} virtual s"
        )
    return result
