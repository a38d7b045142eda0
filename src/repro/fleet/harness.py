"""Per-session harness for the fleet load generator.

A :class:`SessionSpec` is the durable description of one simulated
user: a replayable input list (journal inputs — the same vocabulary
:mod:`repro.obs.replay` and :mod:`repro.fuzz` speak), the setup
script, ablation flags, and an optional fault plan.  Specs come from
three sources and all run identically:

* a recorded journal (:meth:`SessionSpec.from_journal`) — the golden
  session, the shrunk regression corpus, any bug-report capture;
* the fuzz generator (:meth:`SessionSpec.from_seed`) — fresh seeded
  scenarios, so a fleet can be arbitrarily large without arbitrarily
  many checked-in files;
* hand-built specs (:func:`make_slow_spec`) — synthetic outliers the
  telemetry must be able to pick out of the crowd.

A :class:`FleetSession` is a thin driver over one
:class:`~repro.obs.session.Session` (the executor record, replay and
fuzz share): it runs one spec against a (possibly shared)
:class:`~repro.x11.xserver.XServer`, one input per scheduler visit,
and records *its own* telemetry into a private
:class:`~repro.obs.metrics.MetricsRegistry`: a ``fleet.dispatch_ms``
histogram of virtual milliseconds consumed per input (the shared
virtual clock makes this exactly attributable — only one session runs
at a time), plus step/event/error counters.  Each input's latency is
additionally decomposed into ``fleet.phase_ms{phase=...}`` counters —
``handle`` (server request execution), ``wire`` (batch framing
ticks), ``wait`` (clock advances with no server work: fault delays,
``after`` timers) — from the server's tick and batch counters
bracketing the dispatch, so the top-N report can say *where* a slow
session's time went, not just how much.  At completion the
session folds its applications' own registries (``tk.*``, ``tcl.*``,
``send.*`` — not the shared server's mounts) into the same private
registry, so the fleet rollup sees every per-session series under one
``{session=...}`` label.

Isolation rule: inputs resolve their target application among **this
session's** applications only.  Several journals recorded against an
application named ``fuzz`` can share one cell without their inputs
cross-firing into each other's interpreters; the ``send`` registry
de-duplicates display names per server as usual.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..fuzz.gen import generate_scenario
from ..obs.metrics import MetricsRegistry
from ..obs.replay import start_recording
from ..obs.session import Session, SessionConfig
from ..x11 import events as ev
from ..x11.faults import FaultPlan

#: Bucket bounds (virtual ms) for the per-session dispatch histogram;
#: wider than the default so fault-delayed outliers keep resolution.
DISPATCH_BUCKETS = (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000,
                    5000)

#: Journal ring for sessions that record themselves — large enough
#: that no fleet session wraps (a wrapped ring cannot replay-verify).
RECORD_RING = 262144

#: Session states reported through the fleet gauges.
ACTIVE = "active"
COMPLETED = "completed"
FAULTED = "faulted"


class SessionSpec:
    """Everything needed to run one fleet session."""

    def __init__(self, steps: List[Tuple[str, list]],
                 setup_script: str = "",
                 flags: Optional[dict] = None,
                 fault_spec: Optional[dict] = None,
                 name: str = "session", source: str = "",
                 record_path: Optional[str] = None,
                 transport: Optional[str] = None):
        self.steps = [(kind, list(args)) for kind, args in steps]
        self.setup_script = setup_script
        #: the ablation tiers; malformed ``flags`` refuse the spec
        #: with :class:`ValueError`
        self.config = SessionConfig.from_flags(flags)
        self.fault_spec = fault_spec
        #: how this session's Displays reach the cell's server: None /
        #: "loopback" for in-process calls, "socket" for real frames
        #: over the cell's thread-hosted ServerHost (see
        #: repro.x11.transport); socket sessions share cells freely.
        self.transport = transport
        self.name = name
        #: where this spec came from — a journal path or ``seed:N``;
        #: the top-N report prints it as the reproduction handle
        self.source = source
        #: when set, the session records its own journal and saves it
        #: here at completion (the outlier-repro path)
        self.record_path = record_path

    @property
    def flags(self) -> dict:
        return self.config.to_flags()

    @property
    def multi_app(self) -> bool:
        return any(kind == "new_app" for kind, _ in self.steps)

    @property
    def solo(self) -> bool:
        """Sessions that need a server cell of their own.

        A fault plan is installed per *server*, so a faulted spec must
        not share (its faults would hit innocent neighbours); a
        multi-application spec resolves peers by recorded name, which
        only stays unambiguous on a private server; a recording spec's
        journal must contain no neighbour traffic or it cannot replay
        standalone.
        """
        return (self.fault_spec is not None or self.multi_app
                or self.record_path is not None)

    @classmethod
    def from_journal(cls, path: str) -> "SessionSpec":
        """A spec replaying a recorded journal's inputs.

        Planted test-only bugs named by the header are *not* armed —
        the fleet drives the shipping code; the journal contributes
        its workload, not its historical defect.
        """
        from ..obs.journal import Journal
        journal = Journal.load(path)
        header = journal.meta or {}
        return cls(journal.inputs(),
                   setup_script=header.get("script") or "",
                   flags=dict(header.get("flags") or {}),
                   fault_spec=header.get("fault_plan"),
                   name=header.get("name") or "journal",
                   source=path)

    @classmethod
    def from_seed(cls, seed: int, length: int = 40) -> "SessionSpec":
        """A spec generated by the fuzzer's seeded scenario generator."""
        scenario = generate_scenario(seed, length=length)
        return cls(scenario.steps,
                   setup_script=scenario.setup_script,
                   flags=scenario.flags,
                   fault_spec=scenario.fault_spec,
                   name=scenario.name,
                   source="seed:%d" % seed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<SessionSpec %s steps=%d source=%s%s>" % (
            self.name, len(self.steps), self.source or "-",
            " solo" if self.solo else "")


class FleetSession(Session):
    """One live session: spec + applications + private telemetry.

    The executor is the inherited :class:`~repro.obs.session.Session`;
    ``pump_budget`` is events per budgeted pump (0 pumps to
    quiescence).  Recording sessions always pump to quiescence, as
    :func:`repro.obs.replay.replay_journal` does, so their journal
    replays identically.  ``fleet.errors`` counts the error sink.
    """

    def __init__(self, sid: str, spec: SessionSpec, server,
                 pump_budget: int = 0):
        super().__init__(server, spec.config, transport=spec.transport,
                         pump_budget=0 if spec.record_path is not None
                         else pump_budget,
                         errors=[])
        self.sid = sid
        self.spec = spec
        self.status = ACTIVE
        self.metrics = MetricsRegistry()
        self._m_dispatch = self.metrics.histogram(
            "fleet.dispatch_ms", buckets=DISPATCH_BUCKETS)
        self._m_steps = self.metrics.counter("fleet.steps")
        self._m_events = self.metrics.counter("fleet.events")
        self._m_errors = self.metrics.counter("fleet.errors")
        #: per-phase latency decomposition of every dispatched input
        self._m_phase = {
            phase: self.metrics.counter("fleet.phase_ms", phase=phase)
            for phase in ("handle", "wire", "wait")}
        #: the cell server's batch-framing tick counter, cached so a
        #: phase bracket is three attribute reads, not registry lookups
        self._m_batch_ticks = server.obs.metrics.counter(
            "x11.requests", type="batch")
        self.plan: Optional[FaultPlan] = None
        self._cursor = 0
        #: the shared clock when this session launched and when it last
        #: ran (read only by recording sessions)
        self._clock_base = self._clock_seen = 0
        self.finished = False

    # -- lifecycle -----------------------------------------------------

    def launch(self) -> None:
        """Install the fault plan / recording journal, build the app."""
        spec = self.spec
        self._clock_base = self.server.time_ms
        if spec.record_path is not None:
            plan = (FaultPlan.from_spec(spec.fault_spec)
                    if spec.fault_spec else None)
            # start_recording installs the plan and serializes it into
            # the journal header, so the saved capture replays with the
            # same faults standalone.
            self.journal = start_recording(
                self.server, name=spec.name, script=spec.setup_script,
                config=spec.config, maxlen=RECORD_RING, fault_plan=plan)
            self.plan = plan
        elif spec.fault_spec is not None:
            self.plan = self.server.install_fault_plan(
                FaultPlan.from_spec(spec.fault_spec))
        # A fault plan can kill construction; the session then runs
        # its steps app-less, exactly as record_session does.
        self.start(spec.name, spec.setup_script)
        self._clock_seen = self.server.time_ms

    def step(self) -> bool:
        """Run this session's next unit of work; False when idle.

        One visit is either the leftovers of a budget-limited pump
        (so a redraw cascade cannot monopolize the scheduler) or the
        next spec input.
        """
        if self.finished:
            return False
        if self.pending is not None:
            begin = self._phase_begin()
            self.resume()
            self._m_dispatch.observe(self._phase_end(begin))
            return True
        if self._cursor >= len(self.spec.steps):
            return False
        kind, args = self.spec.steps[self._cursor]
        self._cursor += 1
        if self.journal is not None and \
                self.server.time_ms != self._clock_seen:
            # Other cells moved the shared clock since this session last
            # ran.  To the session that jump is an input, like a
            # blocking wait's: journal it, so a standalone replay
            # releases fault-held events and fires timers at the same
            # points of its input stream.  A replay's clock starts at 0
            # where this one started at launch, so the target is
            # relative to the launch.
            self.apply("advance",
                       [self.server.time_ms - self._clock_base])
        self.run_input(kind, args)
        self._clock_seen = self.server.time_ms
        return True

    def run_input(self, kind: str, args: list) -> None:
        """Execute one input, observing its virtual-time latency."""
        begin = self._phase_begin()
        try:
            self.apply(kind, list(args))
        finally:
            self._m_steps.value += 1
            self._m_dispatch.observe(self._phase_end(begin))

    def _phase_begin(self):
        """Snapshot the clock and server work counters around one
        dispatch; only this session runs until :meth:`_phase_end`, so
        every delta is attributable to it."""
        server = self.server
        return (server.time_ms, server.tick_count,
                self._m_batch_ticks.value)

    def _phase_end(self, begin) -> int:
        """Book the phase deltas; returns the total virtual ms."""
        server = self.server
        clock_ms = server.time_ms - begin[0]
        ticks = server.tick_count - begin[1]
        batches = self._m_batch_ticks.value - begin[2]
        # One tick is one virtual ms: batch framing ticks are wire
        # overhead, the rest is request handling; any further clock
        # movement was waiting (fault delays, timer advances).
        self._m_phase["wire"].value += batches
        self._m_phase["handle"].value += max(0, ticks - batches)
        self._m_phase["wait"].value += max(0, clock_ms - ticks)
        return clock_ms

    def finish(self) -> None:
        """Close out: save the recording, fold application telemetry
        into the session registry, release the applications."""
        if self.finished:
            return
        self.finished = True
        if self.journal is not None:
            self.server.detach_journal()
            self.journal.close_sink()
            self.journal.save(self.spec.record_path)
        died = self.main_app is None or self.main_app.destroyed
        injected = self.plan is not None and self.plan.total_injected > 0
        self.status = FAULTED if (died or injected) else COMPLETED
        for app in self.apps:
            # Values, not objects: the apps are about to be destroyed,
            # and the rollup must not double-count the shared server
            # registry each app mounts.
            self.metrics.merge(app.obs.metrics, include_mounts=False)
        self.close()
        self._m_events.value = self.events
        self._m_errors.value = len(self.errors)

    # -- reads ---------------------------------------------------------

    @property
    def virtual_ms(self) -> int:
        """Total virtual milliseconds attributed to this session."""
        return self._m_dispatch.total

    @property
    def steps_run(self) -> int:
        return self._m_steps.value

    def dispatch_percentile(self, quantile: float) -> Optional[int]:
        return self._m_dispatch.percentile(quantile)


#: Setup script of the synthetic slowed session.
SLOW_SETUP = ("set hits 0\n"
              "proc bgerror msg {}\n"
              "label .l -text slow\n"
              "pack append . .l {top}\n")


def make_slow_spec(record_path: str, name: str = "slowpoke",
                   peer: str = "slowpeer", sends: int = 6,
                   delay_ms: int = 150) -> SessionSpec:
    """A deliberately slowed session: sync sends under a delay plan.

    The spec connects a peer application on the same (solo) server and
    issues synchronous ``send`` RPCs to it while a scripted
    :class:`~repro.x11.faults.FaultPlan` holds every PropertyNotify —
    the transport ``send`` rides on — for ``delay_ms`` virtual
    milliseconds.  Each RPC therefore burns hundreds of virtual ms in
    the sender's wait loop, which is exactly the shape of a degraded
    real-world session: alive, correct, slow.  The session records its
    own journal to ``record_path`` (delay plan serialized in the
    header), so the fleet's top-N outlier is one ``--repro`` away from
    a deterministic standalone replay.
    """
    steps: List[Tuple[str, list]] = [
        ("new_app", [peer, "set hits 0\nproc bgerror msg {}\n"])]
    for _ in range(sends):
        steps.append(("eval", ["send {%s} {incr hits}" % peer, name]))
    steps.append(("update", [name]))
    fault_spec = {
        "seed": 0,
        "event_triggers": [{"kind": "delay", "count": 4 * sends + 8,
                            "delay_ms": delay_ms,
                            "event_type": ev.PROPERTY_NOTIFY}],
    }
    return SessionSpec(steps, setup_script=SLOW_SETUP,
                       fault_spec=fault_spec, name=name,
                       source=record_path, record_path=record_path)


__all__ = ["SessionSpec", "FleetSession", "make_slow_spec",
           "DISPATCH_BUCKETS", "RECORD_RING", "SLOW_SETUP",
           "ACTIVE", "COMPLETED", "FAULTED"]
