"""One session: its configuration and the executor that drives it.

Everything that runs a session from journal inputs drives a
:class:`Session`: recording (:func:`repro.obs.replay.record_session`),
replay (:func:`~repro.obs.replay.replay_journal`, and ``wish
--replay`` through it), the fuzz runner and the fleet harness.  A
session holds a server, a :class:`SessionConfig`, a transport, the
applications it built, an optional journal, a pump budget and an
error sink.  Because every driver executes inputs through the same
:meth:`Session.apply`, a recording and its replay cannot drift apart.

A :class:`SessionConfig` is the frozen set of ablation tiers a
session runs under.  It builds the session's ``Interp``/``TkApp``
pairs and is the only reader and writer of a journal header's
``flags`` dict.
"""

from __future__ import annotations

import io
from dataclasses import asdict, dataclass, fields
from typing import Callable, List, Optional, Tuple

#: Input kinds the session journals itself; raw device inputs
#: (``warp_pointer``, ``press_key``, ...) are journaled by the
#: server's own hooks.
LOOP_KINDS = ("update", "advance", "eval", "new_app")


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

    def __init__(self, server, config: Optional[SessionConfig] = None,
                 transport=None, journal=None, pump_budget: int = 0,
                 errors: Optional[List[Tuple[str, BaseException]]] = None):
        self.server = server
        self.config = config if config is not None else SessionConfig()
        self.transport = transport
        self.journal = journal
        self.pump_budget = pump_budget
        self.errors = errors
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

    def start(self, name: str, script: str = "",
              setup: Optional[Callable] = None):
        """Build the main application, or let ``setup(session)`` build
        it, and return it (None if setup failed into the sink)."""
        if setup is None:
            self.main_app = self.new_app(name, script)
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
            app = self.config.build_app(self.server, name,
                                        transport=self.transport)
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

    def close(self) -> None:
        """Destroy every application this session still owns."""
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


__all__ = ["SessionConfig", "Session", "LOOP_KINDS"]
