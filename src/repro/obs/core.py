"""The observability hub: one metrics registry + one tracer per scope.

Every component that wants instrumentation owns (or is handed) an
:class:`Observability` hub.  A standalone :class:`~repro.x11.XServer`
or :class:`~repro.tcl.Interp` creates its own; a Tk application builds
a unified hub on the server's virtual clock, mounts the server's
registry (the server may be shared between applications, so ``x11.*``
metrics are deliberately server-wide), shares the server's tracer (one
tracer per display, so a trace follows work across the applications
on it) and rebinds its interpreter into it, so one ``obs dump`` covers
the whole stack.
"""

from __future__ import annotations

import json
import os
import re
from typing import Callable, Optional

from .metrics import MetricsRegistry
from .profile import Profile
from .timeseries import TimeSeriesRecorder
from .trace import Tracer

#: Environment variable naming a directory for automatic flight dumps.
FLIGHT_DIR_ENV = "REPRO_FLIGHT_DIR"

#: Default trailing window of a flight dump, in virtual milliseconds.
FLIGHT_WINDOW_MS = 10_000


class Observability:
    """A metrics registry and a tracer sharing one virtual clock."""

    def __init__(self, clock: Optional[Callable[[], int]] = None,
                 tracer: Optional[Tracer] = None):
        if clock is None:
            # Standalone components (a bare Interp in tests) have no
            # server clock; spans then have zero duration but keep
            # their structure and request attribution.
            clock = lambda: 0
        self.clock = clock
        self.metrics = MetricsRegistry()
        if tracer is None:
            tracer = Tracer(clock)
            # Ring evictions are telemetry loss; count them where every
            # other metric of the tracer's owner lives.
            tracer.bind_metrics(self.metrics)
        self.tracer = tracer
        #: the XServer this hub observes, when there is one — set by
        #: TkApp/XServer so ``obs journal`` and remote introspection
        #: can reach the session journal.
        self.server = None
        #: the time-series flight recorder, created on first
        #: :meth:`start_recorder`
        self.recorder: Optional[TimeSeriesRecorder] = None
        #: directory for automatic flight dumps; falls back to the
        #: REPRO_FLIGHT_DIR environment variable when None
        self.flight_dir: Optional[str] = None
        self._flight_seq = 0

    def profile(self) -> Profile:
        return Profile(self.tracer.spans)

    # -- flight recorder -----------------------------------------------

    def start_recorder(self, cadence_ms: Optional[int] = None,
                       ring: Optional[int] = None) -> TimeSeriesRecorder:
        """Start (or reconfigure and restart) the time-series recorder.

        The recorder is sampled from the observed server's tick hot
        paths, so it only advances with virtual time.  The server
        samples one recorder: while another hub's recorder is started
        there, this raises ValueError instead of taking its place.
        """
        recorder = self.recorder
        server = self.server
        if server is not None:
            held = server._recorder
            if held is not None and held is not recorder and held.enabled:
                raise ValueError("another application's recorder is "
                                 "sampling this server; stop it first")
        if recorder is None:
            kwargs = {}
            if cadence_ms is not None:
                kwargs["cadence_ms"] = cadence_ms
            if ring is not None:
                kwargs["ring"] = ring
            recorder = self.recorder = TimeSeriesRecorder(
                self.clock, self.metrics, **kwargs)
        else:
            recorder.configure(cadence_ms, ring)
        recorder.start()
        if server is not None:
            server._recorder = recorder
        return recorder

    def stop_recorder(self) -> None:
        """Stop sampling; recorded series stay readable."""
        recorder = self.recorder
        if recorder is not None:
            recorder.stop()
            server = self.server
            if server is not None and server._recorder is recorder:
                server._recorder = None

    # -- flight dumps --------------------------------------------------

    def flight_dump(self, window_ms: int = FLIGHT_WINDOW_MS,
                    reason: str = "manual") -> dict:
        """The last ``window_ms`` of telemetry as one self-contained
        artifact: spans, wire log, recorder samples, and a full
        metrics snapshot, all in virtual time."""
        now = self.clock()
        horizon = now - window_ms
        tracer = self.tracer
        data = {
            "kind": "flight",
            "reason": reason,
            "virtual_ms": now,
            "window_ms": window_ms,
            "metrics": self.metrics.snapshot(),
            "spans": [span.to_dict() for span in tracer.spans
                      if span.end >= horizon],
            "wire": [{"tick": tick, "request": name, "widget": widget}
                     for tick, name, widget in tracer.wire_log
                     if tick >= horizon],
        }
        if self.recorder is not None:
            data["samples"] = self.recorder.window(window_ms, now)
            data["recorder"] = {
                "cadence_ms": self.recorder.cadence_ms,
                "samples": self.recorder.samples_taken,
                "evicted": self.recorder.evicted,
            }
        journal = self.journal()
        if journal is not None:
            data["journal"] = {"entries": len(journal),
                               "dropped": journal.dropped,
                               "recording": journal.recording}
        return data

    def save_flight(self, path: str,
                    window_ms: int = FLIGHT_WINDOW_MS,
                    reason: str = "manual") -> str:
        """Write a flight dump to ``path`` as JSON; returns the path."""
        with open(path, "w") as handle:
            json.dump(self.flight_dump(window_ms, reason), handle,
                      indent=2, sort_keys=True)
            handle.write("\n")
        return path

    def flight_autodump(self, reason: str,
                        window_ms: int = FLIGHT_WINDOW_MS
                        ) -> Optional[str]:
        """Save a flight artifact if a dump directory is configured.

        The failure-path hook (bgerror, invariant-oracle violation, SLO
        breach): a no-op returning None unless :attr:`flight_dir` or
        ``REPRO_FLIGHT_DIR`` names a directory.  Never raises — a
        forensics dump must not mask the failure being dumped.
        """
        directory = self.flight_dir or os.environ.get(FLIGHT_DIR_ENV)
        if not directory:
            return None
        try:
            os.makedirs(directory, exist_ok=True)
            slug = re.sub(r"[^A-Za-z0-9_.-]+", "-", reason)[:60] or "dump"
            self._flight_seq += 1
            path = os.path.join(
                directory, "flight-%s-%d-%d.json"
                % (slug, self.clock(), self._flight_seq))
            return self.save_flight(path, window_ms, reason)
        except OSError:
            return None

    def journal(self):
        """The attached session journal, or None."""
        server = self.server
        return server.journal if server is not None else None

    def dump(self) -> dict:
        """Everything — metrics, trace, profile — as one dict.

        A ``journal`` summary rides along only when a journal is
        attached, so journal-less dumps keep their historical shape.
        """
        data = {
            "metrics": self.metrics.snapshot(),
            "trace": self.tracer.to_dict(),
            "profile": self.profile().to_dict(),
        }
        journal = self.journal()
        if journal is not None:
            data["journal"] = {
                "entries": len(journal),
                "dropped": journal.dropped,
                "recording": journal.recording,
                "counts": journal.counts(),
            }
        if self.recorder is not None:
            data["recorder"] = self.recorder.to_dict()
        return data

    def dump_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.dump(), indent=indent, sort_keys=True)


__all__ = ["Observability"]
