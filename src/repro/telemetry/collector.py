"""Telemetry collectors: counters, histograms and trace events.

The collector API is designed around one invariant: **when telemetry is
off, the instrumented code must do no extra work**.  The base
:class:`Collector` is itself the null object -- every method is a no-op
and its read-side views are empty, so the harness calls it
unconditionally, a few no-op calls per point -- and the timing engines
additionally guard each per-cycle ``event()`` call behind the
plain-attribute ``tracing`` flag, so the disabled path costs one
attribute read at engine start and nothing per cycle (no calls, no
allocations).

Three tiers:

* :class:`Collector` -- the null object; :data:`NULL_COLLECTOR` is the
  shared default instance.
* :class:`MetricsCollector` -- counters and histograms, for
  harness-level instrumentation (``enabled`` but not ``tracing``).
  It keeps totals, not rows: a sweep's per-point record is its
  result-cache entry and its failures are the sweep loop's tally.
* :class:`TraceCollector` -- additionally records per-cycle pipeline
  events for the exporters in :mod:`repro.telemetry.export`.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Dict, List, Optional, Tuple

#: Trace-event names the engines may emit.  Exporters and tests treat
#: this as the closed vocabulary; add here (and in DESIGN.md) when an
#: engine grows a new hook.
EVENT_NAMES = frozenset({
    "issue.slot",         # one issue slot consumed (tid: 0=ALU, 1=MEM)
    "window.occupancy",   # active basic blocks at block entry
    "mem.load",           # load scheduled (dur=latency; args: miss, wb_hit)
    "mem.store",          # store scheduled
    "branch.resolve",     # conditional branch resolved (args: mispredict)
    "block.fault",        # enlarged-block assert fired, block discarded
    "block.retire",       # block retired (dur = issue..complete span)
    "value.verify",       # load-value prediction verified (args: confirmed)
    "value.replay",       # dependent burned a slot on a squashed value
})

#: Trace-event thread lanes (Chrome ``tid``): which resource an event
#: belongs to.
TID_ALU = 0
TID_MEM = 1
TID_CONTROL = 2

#: An event record: (ts_cycle, dur_cycles, name, tid, args-or-None).
Event = Tuple[int, int, str, int, Optional[Dict[str, Any]]]

#: The closed cycle-attribution taxonomy (see DESIGN.md "Profiling &
#: metrics"): every simulated cycle of either engine lands in exactly
#: one bucket, so the buckets of one run sum to its total cycles.
ATTRIBUTION_BUCKETS = (
    "issued_full",          # a word issued this cycle
    "issue_stall",          # fetch ready, operands/window were not
    "memory_wait",          # stalled on a memory-produced operand / block
    "mispredict_recovery",  # wrong-path issue + redirect after squash
    "value_recovery",       # window held by a value-squash replay straggler
    "drain_idle",           # tail: in-flight work completing after issue
)

_EMPTY_MAP: Any = MappingProxyType({})


def finalize_attribution(buckets: Dict[str, int], total_cycles: int,
                         accounted: int) -> None:
    """Close an engine's cycle-attribution books so buckets sum exactly.

    ``accounted`` is the engine's accounting cursor: how many cycles it
    charged during the run.  The usual case (cursor behind the total)
    charges the tail -- in-flight work completing after the last issue
    -- to ``drain_idle``.  A cursor *past* the total only happens when a
    trailing redirect charged fetch cycles that never materialised in
    the final cycle count; the overshoot is un-charged from the
    speculative buckets first so every bucket stays non-negative.
    """
    tail = total_cycles - accounted
    if tail >= 0:
        buckets["drain_idle"] += tail
        return
    need = -tail
    for name in ("drain_idle", "mispredict_recovery", "value_recovery",
                 "issue_stall", "memory_wait", "issued_full"):
        have = buckets.get(name)
        if have is None:
            continue  # engines without the bucket (static: no value axis)
        take = have if have < need else need
        buckets[name] = have - take
        need -= take
        if not need:
            return


class Collector:
    """The telemetry API; the base class is the null implementation.

    ``enabled`` says whether counters and histograms are kept (the
    engines attribute every point's cycles and publish the buckets only
    when it is set); ``tracing`` gates per-cycle event recording, and
    is the one flag that changes an engine's path: a traced point runs
    without the transfer memo.  Both are plain class attributes so hot
    loops can hoist them into a local bool once.
    """

    __slots__ = ()

    enabled = False
    tracing = False

    # ---- write side (all no-ops on the null object) ------------------
    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the named monotonic counter."""

    def observe(self, name: str, value: float) -> None:
        """Record one sample of the named distribution."""

    def event(self, name: str, ts: int, dur: int = 0, tid: int = TID_ALU,
              args: Optional[Dict[str, Any]] = None) -> None:
        """Record one trace event at cycle ``ts`` lasting ``dur`` cycles."""

    # ---- cross-process merge (no-ops on the null object) -------------
    def snapshot(self) -> Dict[str, Any]:
        """A plain-data copy of the counters and histograms so far.

        The snapshot is picklable and feeds :meth:`merge` in another
        collector -- the message a parallel sweep worker sends back to
        the parent so ``telemetry.json`` stays single-writer.
        """
        return {}

    def merge(self, snap: Dict[str, Any]) -> None:
        """Fold another collector's :meth:`snapshot` into this one."""

    # ---- read side (empty on the null object) ------------------------
    @property
    def counters(self) -> Dict[str, int]:
        return _EMPTY_MAP

    @property
    def histograms(self) -> Dict[str, List[float]]:
        return _EMPTY_MAP

    @property
    def events(self) -> List[Event]:
        return []


#: Shared null collector: the default everywhere telemetry is optional.
NULL_COLLECTOR = Collector()


class MetricsCollector(Collector):
    """Collector recording counters and histograms."""

    __slots__ = ("_counters", "_histograms")

    enabled = True
    tracing = False

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._histograms: Dict[str, List[float]] = {}

    def count(self, name: str, n: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + n

    def observe(self, name: str, value: float) -> None:
        self._histograms.setdefault(name, []).append(value)

    def snapshot(self) -> Dict[str, Any]:
        return {
            "counters": dict(self._counters),
            "histograms": {
                name: list(values)
                for name, values in self._histograms.items()
            },
        }

    def merge(self, snap: Dict[str, Any]) -> None:
        for name, total in snap.get("counters", {}).items():
            self.count(name, total)
        for name, values in snap.get("histograms", {}).items():
            self._histograms.setdefault(name, []).extend(values)

    @property
    def counters(self) -> Dict[str, int]:
        return self._counters

    @property
    def histograms(self) -> Dict[str, List[float]]:
        return self._histograms


class TraceCollector(MetricsCollector):
    """Collector that additionally records per-cycle pipeline events.

    Events are held as flat tuples (no per-event objects) and ordered by
    the exporters, not here, to keep the record path cheap.
    """

    __slots__ = ("_events",)

    tracing = True

    def __init__(self) -> None:
        super().__init__()
        self._events: List[Event] = []

    def event(self, name: str, ts: int, dur: int = 0, tid: int = TID_ALU,
              args: Optional[Dict[str, Any]] = None) -> None:
        self._events.append((ts, dur, name, tid, args))

    @property
    def events(self) -> List[Event]:
        return self._events
