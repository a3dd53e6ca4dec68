"""Holds no definition.  The measurement spine's tracer imports this
module by name before it rebinds (``_BINDERS`` in
``benchmarks/spine/tracing.py``), so it stays until the tracer's table
drops it.  Strong consistency — after every install, each view equals
its current definition over a legal prefix of the updates — is checked
by ``tests/extent_oracle.py`` against stdlib ``sqlite3``.
"""
