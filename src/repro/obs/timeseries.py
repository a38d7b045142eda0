"""Virtual-time flight recorder: metrics sampled into bounded rings.

The metrics registry answers "what are the totals *now*"; after a
failure the interesting question is "what were they over the last few
virtual seconds".  A :class:`TimeSeriesRecorder` turns the registry
into queryable timelines: driven from the server's tick hot paths (one
``is not None`` test per tick when idle), it samples every metric at a
configurable virtual-millisecond cadence into one bounded ring per
series.

Everything is virtual-clock time — no wall time, no threads — so the
same workload records the same timelines on every run, and a recorder
sampled during a journal replay reproduces the original session's
timelines exactly.  Counters and gauges sample to their scalar value;
histograms sample to a ``{count, sum, p50, p95, p99}`` snapshot so
latency percentiles become curves rather than end-of-run numbers.

The recorder is the data source for the flight-recorder dump
(:meth:`repro.obs.core.Observability.flight_dump`): on bgerror,
invariant-oracle failure, or SLO breach, the last N virtual seconds of
samples ship inside one self-contained artifact next to the span tree
and the attached journal's requests.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional

from .metrics import Histogram, MetricsRegistry

#: Default sampling cadence in virtual milliseconds.
DEFAULT_CADENCE_MS = 100

#: Default per-series ring capacity (points, not bytes).
DEFAULT_RING = 600


class TimeSeriesRecorder:
    """Samples one metrics registry on a shared virtual clock."""

    def __init__(self, clock: Callable[[], int],
                 registry: MetricsRegistry,
                 cadence_ms: int = DEFAULT_CADENCE_MS,
                 ring: int = DEFAULT_RING):
        if cadence_ms < 1:
            raise ValueError("cadence_ms must be >= 1")
        if ring < 1:
            raise ValueError("ring must be >= 1")
        self.clock = clock
        self.registry = registry
        self.cadence_ms = cadence_ms
        self.ring = ring
        self.enabled = False
        #: metric key -> deque of (virtual_ms, value) points
        self.series: Dict[str, deque] = {}
        self.samples_taken = 0
        #: points silently pushed off full rings (telemetry loss is
        #: never silent in this codebase)
        self.evicted = 0
        self._last: Optional[int] = None

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "TimeSeriesRecorder":
        self.enabled = True
        if self._last is None:
            # First sample lands one cadence after starting, so a
            # recorder started at t and one started at t replayed
            # record identical timelines.
            self._last = self.clock()
        return self

    def stop(self) -> None:
        self.enabled = False

    def configure(self, cadence_ms: Optional[int] = None,
                  ring: Optional[int] = None) -> None:
        """Adjust cadence and/or ring size; resizing keeps the newest
        points of each existing series."""
        if cadence_ms is not None:
            if cadence_ms < 1:
                raise ValueError("cadence_ms must be >= 1")
            self.cadence_ms = cadence_ms
        if ring is not None and ring != self.ring:
            if ring < 1:
                raise ValueError("ring must be >= 1")
            self.ring = ring
            for key, points in list(self.series.items()):
                self.series[key] = deque(points, maxlen=ring)

    def clear(self) -> None:
        self.series.clear()
        self.samples_taken = 0
        self.evicted = 0
        self._last = None

    # -- sampling (tick hot path) --------------------------------------

    def maybe_sample(self) -> bool:
        """Sample if at least one cadence elapsed; the per-tick hook."""
        if not self.enabled:
            return False
        now = self.clock()
        last = self._last
        if last is not None and now - last < self.cadence_ms:
            return False
        self.sample(now)
        return True

    def sample(self, now: Optional[int] = None) -> None:
        """Take one unconditional sample of every metric."""
        if now is None:
            now = self.clock()
        self._last = now
        self.samples_taken += 1
        ring = self.ring
        series = self.series
        for key, metric in sorted(self.registry._all().items()):
            if isinstance(metric, Histogram):
                value: object = {"count": metric.value,
                                 "sum": metric.total}
                if metric.value:
                    value.update(metric.percentiles())
            else:
                value = metric.value
            points = series.get(key)
            if points is None:
                points = series[key] = deque(maxlen=ring)
            elif len(points) == points.maxlen:
                self.evicted += 1
            points.append((now, value))

    # -- reads ---------------------------------------------------------

    def series_for(self, key: str) -> List[tuple]:
        """All recorded ``(virtual_ms, value)`` points of one series."""
        return list(self.series.get(key, ()))

    def window(self, window_ms: int,
               now: Optional[int] = None) -> Dict[str, List[list]]:
        """Every series restricted to the trailing window."""
        if now is None:
            now = self.clock()
        horizon = now - window_ms
        out: Dict[str, List[list]] = {}
        for key in sorted(self.series):
            points = [[t, value] for t, value in self.series[key]
                      if t >= horizon]
            if points:
                out[key] = points
        return out

    def to_dict(self) -> Dict[str, object]:
        return {
            "cadence_ms": self.cadence_ms,
            "ring": self.ring,
            "samples": self.samples_taken,
            "evicted": self.evicted,
            "series": {key: [[t, value] for t, value in points]
                       for key, points in sorted(self.series.items())},
        }

    def format(self, pattern: Optional[str] = None) -> str:
        """Human-readable summary: one line per series."""
        from ..tcl.strings import glob_match
        lines = ["RECORDER: %d samples every %dms, %d series%s"
                 % (self.samples_taken, self.cadence_ms,
                    len(self.series),
                    ", %d evicted" % self.evicted if self.evicted
                    else "")]
        for key in sorted(self.series):
            if pattern is not None and not glob_match(pattern, key):
                continue
            points = self.series[key]
            first = points[0]
            last = points[-1]
            lines.append("%-44s %d pts  t=%d..%d  last=%s"
                         % (key, len(points), first[0], last[0],
                            last[1]))
        return "\n".join(lines)


__all__ = ["TimeSeriesRecorder", "DEFAULT_CADENCE_MS", "DEFAULT_RING"]
