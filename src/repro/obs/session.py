"""One session: its description, its configuration and the executor
that drives it.

A :class:`SessionSpec` is the one description of a session: its inputs
(journal inputs, see :data:`repro.obs.journal.INPUT_KINDS`), the setup
script, the :class:`SessionConfig`, an optional serialized fault plan,
the name of an armed planted bug and the main application's name.  It
*is* a journal header plus the journal's inputs:
:meth:`SessionSpec.header` is the header a recording of it writes, and
:meth:`SessionSpec.from_journal` reads both back.  A golden capture, a
generated fuzz scenario and a fleet session are therefore one kind of
object.  The fleet's three extra fields (where the spec came from, how
its displays reach the server, where a session saves its own
recording) stay out of the header.

Everything that runs a session drives a :class:`Session` and starts it
with :meth:`Session.launch`: recording
(:func:`repro.obs.replay.record_session`, ``wish --journal``), replay
(:func:`~repro.obs.replay.replay_journal`, and ``wish --replay``
through it), the fuzz runner and the fleet harness.  Launch installs
the spec's fault plan, attaches the recording journal with the spec's
header and builds the main application, in that order; every input
then runs through the same :meth:`Session.apply`.  So a recording and
its replay write their header from the same kind of object and execute
their inputs the same way, by construction.

A :class:`SessionConfig` is the frozen set of ablation tiers a session
runs under.  It builds the session's ``Interp``/``TkApp`` pairs and is
the only reader and writer of a journal header's ``flags`` dict.
"""

from __future__ import annotations

import io
from dataclasses import asdict, dataclass, fields
from typing import Callable, List, Optional, Sequence, Tuple

from .journal import FORMAT_VERSION, JOURNAL_RING, Journal

#: Input kinds the session journals itself; raw device inputs
#: (``warp_pointer``, ``press_key``, ...) are journaled by the
#: server's own hooks.
LOOP_KINDS = ("update", "advance", "eval", "new_app")

#: Journal ring for fuzz and recording fleet sessions: large enough
#: that none wraps (a wrapped ring cannot replay-verify).
RECORD_RING = 262144


@dataclass(frozen=True)
class SessionConfig:
    """The ablation tiers of one session (all on by default).

    Field order is the key order of a journal header's ``flags``.
    """

    cache_enabled: bool = True
    compile_enabled: bool = True
    buffering_enabled: bool = True
    bytecode_enabled: bool = True

    @classmethod
    def from_flags(cls, flags: Optional[dict]) -> "SessionConfig":
        """The config a ``flags`` dict describes; absent keys stay on.

        Raises :class:`ValueError` naming the key for an unknown key
        or a value that is not a bool.
        """
        flags = flags or {}
        names = [field.name for field in fields(cls)]
        for key, value in flags.items():
            if key not in names:
                raise ValueError('unknown session flag "%s" (must be %s)'
                                 % (key, ", ".join(names)))
            if not isinstance(value, bool):
                raise ValueError('session flag "%s" must be true or '
                                 'false, not %r' % (key, value))
        return cls(**flags)

    @classmethod
    def from_header(cls, header: Optional[dict]) -> "SessionConfig":
        """The config a journal header records."""
        return cls.from_flags((header or {}).get("flags"))

    @classmethod
    def from_interp(cls, interp) -> "SessionConfig":
        """The config a live interpreter, and the Tk application it
        belongs to (if any), runs under."""
        app = getattr(interp, "tk_app", None)
        return cls(
            cache_enabled=app.cache.enabled if app is not None else True,
            compile_enabled=interp.compile_enabled,
            buffering_enabled=(app.display.buffering_enabled
                               if app is not None else True),
            bytecode_enabled=interp.bytecode_enabled)

    def to_flags(self) -> dict:
        """The journal header's ``flags`` dict."""
        return asdict(self)

    def build_app(self, server, name: str, transport=None, stdout=None):
        """A fresh ``Interp``/``TkApp`` pair on ``server`` under this
        config; output goes to ``stdout`` (default: discarded)."""
        from ..tcl.interp import Interp
        from ..tk.app import TkApp
        interp = Interp(compile_enabled=self.compile_enabled,
                        bytecode_enabled=self.bytecode_enabled)
        interp.stdout = stdout if stdout is not None else io.StringIO()
        return TkApp(server, name=name, interp=interp,
                     cache_enabled=self.cache_enabled,
                     buffering_enabled=self.buffering_enabled,
                     transport=transport)


@dataclass(frozen=True)
class SessionSpec:
    """The one description of a session: a journal header plus the
    journal's inputs (see the module docstring)."""

    #: the inputs, in order: ``(kind, args)`` journal inputs
    steps: Sequence[Tuple[str, list]] = ()
    #: evaluated in the main application when it is built
    setup_script: str = ""
    #: the ablation tiers (the header's ``flags``)
    config: SessionConfig = SessionConfig()
    #: a serialized :class:`~repro.x11.faults.FaultPlan`, installed at
    #: launch so seeded and scripted faults fire at the same ticks
    fault_spec: Optional[dict] = None
    #: the test-only planted bug (:mod:`repro.fuzz.plants`) that must
    #: be armed for the session to reproduce
    planted: Optional[str] = None
    #: the main application's send name
    name: str = "session"
    #: where the spec came from -- a journal path or ``seed:N``; the
    #: fleet's top-N report prints it as the reproduction handle
    source: str = ""
    #: how the session's displays reach the server: None /
    #: ``"loopback"``, ``"socket"`` or a factory (see
    #: :func:`repro.x11.transport.resolve_transport`); the wire is
    #: transport-invariant, so the header does not record it
    transport: object = None
    #: when set, a fleet session records its own journal and saves it
    #: here at completion (the outlier-repro path)
    record_path: Optional[str] = None

    @classmethod
    def from_journal(cls, journal) -> "SessionSpec":
        """The session ``journal`` records: header fields plus inputs.

        ``journal`` is a :class:`~repro.obs.journal.Journal` or the
        path of a saved one (the path is then the ``source``).  Header
        ``flags`` that are malformed raise :class:`ValueError`.
        """
        source = ""
        if isinstance(journal, str):
            journal, source = Journal.load(journal), journal
        header = journal.meta or {}
        return cls(steps=journal.inputs(),
                   setup_script=header.get("script") or "",
                   config=SessionConfig.from_header(header),
                   fault_spec=header.get("fault_plan"),
                   planted=header.get("planted"),
                   name=header.get("name") or "session",
                   source=source)

    def header(self) -> dict:
        """The journal header a recording of this session writes."""
        header = {"k": "header", "v": FORMAT_VERSION, "name": self.name,
                  "script": self.setup_script,
                  "flags": self.config.to_flags()}
        if self.fault_spec is not None:
            header["fault_plan"] = self.fault_spec
        if self.planted is not None:
            header["planted"] = self.planted
        return header


def start_recording(server, spec: SessionSpec, sink: Optional[str] = None,
                    maxlen: int = JOURNAL_RING) -> Journal:
    """Attach a fresh recording journal with ``spec``'s header to
    ``server`` and return it; ``sink`` streams every entry to a file
    as it is recorded.  Installing the spec's fault plan is
    :meth:`Session.launch`'s job, not this one's."""
    journal = Journal(clock=lambda: server.time_ms, maxlen=maxlen,
                      sink=sink)
    journal.set_header(spec)
    journal.open_sink()
    server.attach_journal(journal)
    return journal


class Session:
    """Executes journal inputs against one server for one session.

    ``errors`` is the error sink.  An exception raised by application
    setup, a top-level ``eval``, an event-loop pump, an input
    injection or teardown is appended to it as ``(stage, exception)``
    and the session continues; the wire diff, not the exception,
    arbitrates divergence.  With no sink the exception propagates to
    the caller.

    ``pump_budget`` bounds the events one pump processes; 0 pumps to
    quiescence.  A pump that spends its whole budget leaves its
    application in :attr:`pending` for :meth:`resume`.

    Inputs resolve their target application by send name among this
    session's own applications only, so sessions sharing a server
    cannot fire into each other's interpreters.
    """

    def __init__(self, server, spec: Optional[SessionSpec] = None,
                 pump_budget: int = 0,
                 errors: Optional[List[Tuple[str, BaseException]]] = None):
        self.server = server
        #: what this session runs: its config, transport and main app
        self.spec = spec if spec is not None else SessionSpec()
        self.pump_budget = pump_budget
        self.errors = errors
        #: the recording journal :meth:`launch` attached, if any
        self.journal = None
        #: the fault plan :meth:`launch` installed, if any
        self.plan = None
        self.apps: List = []
        self.main_app = None
        #: the application whose budgeted pump ran out with work left
        self.pending = None
        #: events processed by this session's pumps
        self.events = 0

    def _fail(self, stage: str, error: BaseException) -> None:
        if self.errors is None:
            raise error
        self.errors.append((stage, error))

    # -- applications --------------------------------------------------

    def launch(self, ring: Optional[int] = None, sink: Optional[str] = None,
               setup: Optional[Callable] = None):
        """Start the spec's session; every driver starts one this way.

        Installs the spec's fault plan, then (with ``ring`` set)
        attaches a recording journal of ``ring`` entries carrying the
        spec's header, streamed to ``sink`` if given, then builds the
        main application: from the spec's name and setup script, or
        by ``setup(session)`` for Python-driven sessions.  Returns the
        main application (None if building it failed into the sink).
        """
        spec = self.spec
        if spec.fault_spec:
            from ..x11.faults import FaultPlan
            self.plan = self.server.install_fault_plan(
                FaultPlan.from_spec(spec.fault_spec))
        if ring is not None:
            self.journal = start_recording(self.server, spec, sink=sink,
                                           maxlen=ring)
        if setup is None:
            self.main_app = self.new_app(spec.name, spec.setup_script)
            return self.main_app
        try:
            app = setup(self)
        except Exception as error:
            self._fail("new_app", error)
            return None
        if app not in self.apps:
            self.apps.append(app)
        self.main_app = app
        return app

    def new_app(self, name: str, script: str = ""):
        """Connect one more application: build it, evaluate its setup
        script, pump it once.  Returns None if that failed."""
        try:
            app = self.spec.config.build_app(self.server, name,
                                             transport=self.spec.transport)
            # Owned before its script runs: an application whose setup
            # script failed is still connected, so later inputs naming
            # it and teardown must still reach it.
            self.apps.append(app)
            if script:
                app.interp.eval_top(script)
            app.update()
        except Exception as error:
            self._fail("new_app", error)
            return None
        return app

    def app_named(self, args):
        """An input's target: the live application whose send name is
        ``args[0]``, else the main application."""
        if args:
            for app in self.apps:
                if app.name == args[0] and not app.destroyed:
                    return app
        return self.main_app

    def stop_recording(self) -> None:
        """Detach this session's recording journal and close its sink."""
        if self.journal is not None:
            self.server.detach_journal()
            self.journal.close_sink()

    def close(self) -> None:
        """Stop recording, then destroy every application this session
        still owns (the teardown is not journaled)."""
        self.stop_recording()
        for app in self.apps:
            if not app.destroyed:
                try:
                    app.destroy()
                except Exception as error:
                    # A still-armed fault plan may inject into the
                    # teardown requests themselves.
                    self._fail("teardown", error)

    # -- inputs --------------------------------------------------------

    def apply(self, kind: str, args: list):
        """Execute one journal input; returns the application a
        ``new_app`` input built, else None."""
        if kind in LOOP_KINDS and self.journal is not None:
            self.journal.input(kind, args)
        if kind == "new_app":
            return self.new_app(args[0], args[1] if len(args) > 1 else "")
        server = self.server
        if kind == "eval":
            app = self.app_named(args[1:])
            if app is not None:
                try:
                    app.interp.eval_top(args[0])
                except Exception as error:
                    self._fail("eval", error)
            self.pump(app)
        elif kind == "update":
            self.pump(self.app_named(args))
        elif kind == "advance":
            if args[0] > server.time_ms:
                server.time_ms = args[0]
            self.pump(self.app_named(args[1:]))
        else:
            # Raw device input.  With a thread-hosted server (socket
            # transports) the injection must run on the server thread,
            # which also services the clients' mid-call output flushes.
            host = getattr(server, "_wire_host", None)
            try:
                if host is not None and host.running:
                    host.inject(kind, *args)
                else:
                    getattr(server, kind)(*args)
            except Exception as error:
                # A fault plan may fire at the input's own request tick.
                self._fail("inject", error)
        return None

    def pump(self, app) -> None:
        """Run one application's event loop within the pump budget."""
        if app is None or app.destroyed:
            return
        try:
            if self.pump_budget:
                processed = app.dispatcher.do_events(self.pump_budget)
                if processed == self.pump_budget:
                    self.pending = app
            else:
                processed = app.update()
        except Exception as error:
            self._fail("pump", error)
            processed = 0
        self.events += processed

    def resume(self) -> bool:
        """Continue the pending budget-limited pump; False if none."""
        app, self.pending = self.pending, None
        if app is None:
            return False
        self.pump(app)
        return True


__all__ = ["SessionConfig", "SessionSpec", "Session", "start_recording",
           "LOOP_KINDS", "RECORD_RING"]
