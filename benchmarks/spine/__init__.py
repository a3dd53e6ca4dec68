"""The measurement spine: six wall-clock workloads, five end-to-end
metrics and a per-layer trace, all driven from outside ``src/repro``.

See ``README.md`` in this directory and ``BENCHMARK.json`` at the
repository root.  Entry point: ``python3 benchmarks/spine/run.py``.
"""
