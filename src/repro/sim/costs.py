"""Cost model: virtual durations for maintenance work.

The paper's evaluation ran on four Pentium III PCs with Oracle8i; we
replace wall time with a parametric cost model calibrated to reproduce
the paper's *regimes*:

* maintaining one data update is cheap (sub-second): a handful of
  indexed probe queries plus a small view refresh;
* maintaining one schema change is expensive (tens of seconds): a view
  definition rewrite plus view adaptation that rejoins whole relations;
* therefore aborting an in-flight schema-change maintenance wastes far
  more work than aborting a data-update maintenance — the asymmetry all
  of Figures 9-12 rests on.

Every knob is a public field so ablation benchmarks can sweep them.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CostModel:
    """Durations (virtual seconds) charged for maintenance operations."""

    #: fixed round-trip overhead of any maintenance query
    query_base: float = 0.010
    #: per value shipped in an IN-list probe
    query_per_probe_value: float = 0.0002
    #: per tuple returned by a source query
    query_per_result_tuple: float = 0.0005
    #: per tuple scanned when the query cannot use the probe list
    #: (full-relation reads during view adaptation)
    query_per_scanned_tuple: float = 0.0004
    #: applying one delta tuple to the materialized view
    refresh_per_tuple: float = 0.0002
    #: fixed cost of one view refresh transaction
    refresh_base: float = 0.005
    #: rewriting the view definition after a schema change (VS)
    vs_rewrite: float = 2.0
    #: fixed cost of one view adaptation pass (VA)
    va_base: float = 1.0
    #: per tuple recomputed/installed during view adaptation
    va_per_tuple: float = 0.0004
    #: fixed overhead of re-issuing a maintenance query after a
    #: transient failure (connection re-establishment, request resend)
    retry_overhead: float = 0.002
    #: serving a maintenance-query answer from the local snapshot cache
    #: (lookup + version comparison; no network, no source execution)
    cache_hit: float = 0.0005
    #: applying one gap-delta tuple while patching a stale cached
    #: answer forward to the current source version
    patch_per_row: float = 0.00005
    #: serving a maintenance query from the self-maintenance auxiliary
    #: store (local replica lookup + evaluation; no network) — cheaper
    #: than ``cache_hit`` because no per-query memo is consulted
    aux_hit: float = 0.0004
    #: folding one committed gap-delta tuple into an auxiliary replica
    aux_update_per_row: float = 0.00004
    #: pre-exec detection: checking the schema-change flag
    detection_flag_check: float = 0.00001
    #: building one dependency-graph node
    detection_per_node: float = 0.0001
    #: building/classifying one dependency edge
    detection_per_edge: float = 0.0001
    #: incremental substrate: touching one node (cached footprint
    #: lookup / index remap) instead of building it from scratch
    detection_incremental_per_node: float = 0.00002
    #: incremental substrate: one conflict test / edge remap against
    #: cached footprints
    detection_incremental_per_edge: float = 0.00002
    #: topological sort / cycle merge, per node + edge
    correction_per_element: float = 0.0001
    #: handing one maintenance unit to a parallel worker (ready-set
    #: lookup, context handoff) — charged to the dispatching round
    dispatch_overhead: float = 0.002
    #: folding one message into a voluntary batch (safe-run scan share,
    #: queue surgery, delta merge) — charged when a BatchPolicy groups
    #: a run of the UMQ
    batch_merge_per_message: float = 0.0002
    #: maintenance-query trips one source accepts concurrently; extra
    #: trips queue at the source, so parallel speedup saturates
    #: realistically instead of scaling without bound
    source_channel_limit: int = 1
    #: fixed latency of one write-ahead journal append (fsync'd record)
    journal_append_base: float = 0.0001
    #: per byte serialized into a journal entry
    journal_append_per_byte: float = 0.0000001
    #: fixed cost of taking one durable checkpoint
    checkpoint_base: float = 0.01
    #: per tuple snapshotted into a checkpoint (extents + cached answers)
    checkpoint_per_tuple: float = 0.00005
    #: per journal entry scanned/applied during recovery replay
    replay_per_entry: float = 0.0002
    #: fixed cost of one front-end point read against a view extent
    #: (index lookup on the serving replica; no source involved)
    read_point_base: float = 0.0002
    #: fixed cost of one front-end scan read (predicate pass start-up)
    read_scan_base: float = 0.0005
    #: per tuple touched by a front-end scan read
    read_scan_per_tuple: float = 0.000001
    #: concurrent read servers per shard in the front-end queueing
    #: model; extra reads wait for a free server, which is where the
    #: p99 tail comes from
    read_servers: int = 4

    # ------------------------------------------------------------------
    # derived costs
    # ------------------------------------------------------------------

    def refresh(self, delta_tuples: int) -> float:
        return self.refresh_base + delta_tuples * self.refresh_per_tuple

    def retry_pause(self, backoff: float) -> float:
        """One retry round: fixed re-issue overhead plus the backoff
        sleep the :class:`~repro.faults.retry.RetryPolicy` prescribed."""
        return self.retry_overhead + backoff

    def cache_serve(self, patched_rows: int) -> float:
        """One snapshot-cache answer: local lookup plus forward-patch
        work — strictly cheaper than ``query_base`` by construction."""
        return self.cache_hit + patched_rows * self.patch_per_row

    def aux_serve(self, applied_rows: int) -> float:
        """One auxiliary-store answer: replica evaluation plus the gap
        deltas folded in — strictly cheaper than ``query_base``."""
        return self.aux_hit + applied_rows * self.aux_update_per_row

    def detection(self, nodes: int, edges: int) -> float:
        return (
            nodes * self.detection_per_node + edges * self.detection_per_edge
        )

    def detection_incremental(self, nodes: int, edges: int) -> float:
        """Detection work served by the incremental substrate (cached
        footprints, index remaps) rather than a from-scratch build."""
        return (
            nodes * self.detection_incremental_per_node
            + edges * self.detection_incremental_per_edge
        )

    def correction(self, nodes: int, edges: int) -> float:
        return (nodes + edges) * self.correction_per_element

    def batch_merge(self, messages: int) -> float:
        """Forming one voluntary batch over ``messages`` messages."""
        return messages * self.batch_merge_per_message

    def journal_append(self, entry_bytes: int) -> float:
        """One write-ahead journal record hitting stable storage."""
        return (
            self.journal_append_base
            + entry_bytes * self.journal_append_per_byte
        )

    def checkpoint(self, tuples: int) -> float:
        """One durable checkpoint over ``tuples`` snapshotted tuples."""
        return self.checkpoint_base + tuples * self.checkpoint_per_tuple

    def replay(self, entries: int) -> float:
        """Scanning/applying ``entries`` journal entries at recovery."""
        return entries * self.replay_per_entry

    def point_read(self) -> float:
        """One front-end point read served off a view extent."""
        return self.read_point_base

    @classmethod
    def paper_default(cls) -> "CostModel":
        """The calibrated default used by all figure reproductions."""
        return cls()

    @classmethod
    def calibrated(cls, tuples_per_relation: int) -> "CostModel":
        """Calibrate per-tuple costs to the paper's regimes regardless
        of testbed scale.

        Targets (virtual seconds), independent of ``tuples_per_relation``:

        * one data-update maintenance over the 6-relation view ≈ 0.2 s
          (Figure 8 charts ~700 s for 3000 DUs);
        * one schema-change maintenance ≈ 23 s (VS rewrite 2 s + one
          adaptation round scanning all six relations ≈ 20 s), matching
          the paper's "schema change processing is time consuming
          compared to data update processing".
        """
        n = max(1, tuples_per_relation)
        return cls(
            query_base=0.04,
            query_per_probe_value=0.0002,
            query_per_result_tuple=1.0 / n,
            query_per_scanned_tuple=2.0 / n,
            refresh_per_tuple=0.0002,
            refresh_base=0.005,
            vs_rewrite=2.0,
            va_base=1.0,
            va_per_tuple=2.0 / n,
            cache_hit=0.002,
            patch_per_row=0.1 / n,
            aux_hit=0.0015,
            aux_update_per_row=0.08 / n,
        )
