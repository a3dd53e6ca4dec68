"""The fault injector: realizes a :class:`FaultPlan` at runtime.

One injector is installed into a :class:`~repro.sim.engine.SimEngine`
(``engine.install_faults``); from then on

* every query entry of :class:`~repro.sources.source.DataSource` /
  :class:`~repro.sources.sqlite_source.SqliteDataSource` consults
  :meth:`FaultInjector.on_query` first, which raises
  :class:`~repro.sources.errors.TransientSourceError` /
  :class:`~repro.sources.errors.QueryTimeoutError` per the plan;
* every :class:`~repro.sources.wrapper.Wrapper` asks
  :meth:`FaultInjector.on_forward` how much extra link latency the next
  message suffers (delays, drop-with-redelivery).

The injector is the only stateful piece (attempt and message counters);
all decisions come from the immutable plan, so replaying the same
workload under the same plan reproduces the same faults.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..sources.errors import QueryTimeoutError, TransientSourceError
from .plan import FaultPlan


@dataclass
class FaultStats:
    """What the injector actually did during one run."""

    #: plain transient failures injected at query entry
    injected_transients: int = 0
    #: timeouts injected at query entry
    injected_timeouts: int = 0
    #: queries rejected because the source was inside a crash window
    crash_rejections: int = 0
    #: wrapper messages given extra link delay
    delayed_messages: int = 0
    #: wrapper message drop events (each redelivered)
    dropped_messages: int = 0

    def summary(self) -> dict[str, int]:
        return {
            "injected_transients": self.injected_transients,
            "injected_timeouts": self.injected_timeouts,
            "crash_rejections": self.crash_rejections,
            "delayed_messages": self.delayed_messages,
            "dropped_messages": self.dropped_messages,
        }


@dataclass
class FaultInjector:
    """Runtime realization of one :class:`FaultPlan`."""

    plan: FaultPlan = field(default_factory=FaultPlan)
    stats: FaultStats = field(default_factory=FaultStats)
    _query_attempts: Counter = field(default_factory=Counter)
    _forwarded: Counter = field(default_factory=Counter)

    # ------------------------------------------------------------------
    # query-path injection
    # ------------------------------------------------------------------

    def on_query(self, source: str, now: float) -> None:
        """Gate one query attempt at ``source``; raise to inject.

        Crash windows dominate (a crashed source answers nothing, so the
        attempt does not consume a transient slot); the failure carries
        the window end as a recovery hint.
        """
        window = self.plan.crash_covering(source, now)
        if window is not None:
            self.stats.crash_rejections += 1
            raise TransientSourceError(
                source,
                f"source crashed (window [{window.start:g}, "
                f"{window.end:g}))",
                retry_at=window.end,
            )
        attempt = self._query_attempts[source]
        self._query_attempts[source] += 1
        fault = self.plan.transient_for(source, attempt)
        if fault is None:
            return
        if fault.kind == "timeout":
            self.stats.injected_timeouts += 1
            raise QueryTimeoutError(
                source,
                f"query attempt #{attempt} timed out after "
                f"{fault.timeout:g}s",
                elapsed=fault.timeout,
            )
        self.stats.injected_transients += 1
        raise TransientSourceError(
            source, f"query attempt #{attempt} failed transiently"
        )

    # ------------------------------------------------------------------
    # wrapper-link injection
    # ------------------------------------------------------------------

    def on_forward(self, source: str) -> float:
        """Extra link delay for the next message forwarded by ``source``.

        Drop-with-redelivery surfaces as delay too — committed source
        updates cannot be lost, only late — so the wrapper composes the
        returned value with its own fixed latency.
        """
        index = self._forwarded[source]
        self._forwarded[source] += 1
        fault = self.plan.link_fault_for(source, index)
        if fault is None:
            return 0.0
        if fault.drops:
            self.stats.dropped_messages += fault.drops
        if fault.delay:
            self.stats.delayed_messages += 1
        return fault.total_delay

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def describe(self) -> str:
        return f"FaultInjector({self.plan.describe()})"
