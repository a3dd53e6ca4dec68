"""Shared scale knobs for the figure benchmarks."""

from __future__ import annotations

import os

from repro.experiments import WarehouseConfig


def full_scale() -> bool:
    """``DYNO_BENCH_FULL=1`` switches to the paper-scale sweeps."""
    return os.environ.get("DYNO_BENCH_FULL", "") == "1"


def bench_tuples() -> int:
    """Tuples per relation for figure benches."""
    return 2000 if full_scale() else 1000


def bench_config() -> WarehouseConfig:
    """The figure benches' world: the default config at bench scale."""
    return WarehouseConfig(tuples_per_relation=bench_tuples())
