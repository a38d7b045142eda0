"""The ``send`` command (paper section 6).

``send`` is a remote-procedure-call facility: any Tk-based application
can invoke Tcl commands in any other Tk-based application on the same
display.  The implementation follows the paper:

* every application registers a unique name, recorded in a registry
  property on the display's *root* window;
* ``send name command`` locates the target by reading the registry,
  then forwards the command through properties on the target's
  communication window;
* the target's Tk executes the command in its interpreter and returns
  the result (or error) the same way.

Because both applications are clients of the same (simulated) X server,
this works between genuinely separate interpreters and widget trees —
the paper's replacement for monolithic applications.

Crash safety (as in real Tk): the registry is *advisory* — an
application that dies without unregistering leaves a stale entry
behind, so a failed lookup and ``winfo interps`` scrub entries whose
comm window no longer exists (a successful send probes only its
target); a target that dies while a send is outstanding produces a
clean ``target application died`` error in bounded time rather than a
hang; a Python-level failure inside a sent script is returned to the
sender as an error reply instead of killing the target's event loop;
and errorInfo is carried across the interpreter boundary so remote
stack traces are not lost.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Tuple

from ..tcl.errors import TclError
from ..tcl.lists import format_list, parse_list
from ..x11 import events as ev
from ..x11.xserver import XProtocolError

_REGISTRY_PROPERTY = "InterpRegistry"
_COMM_PROPERTY = "Comm"

#: Virtual-millisecond budget for one send round trip.  The server
#: clock advances on every request (including the liveness probes the
#: wait loop issues once it has run long), so this bounds the wait in
#: *rounds* as well.
_DEFAULT_TIMEOUT_MS = 2000

#: Consecutive pump rounds with no progress anywhere in the system
#: before a send gives up early.  In the simulator a fully idle system
#: can never produce a reply, so there is no point burning the whole
#: timeout budget — unless the fault plan is still holding delayed
#: events, in which case the wait continues until the deadline.  It is
#: also the number of busy rounds a wait runs before it probes the
#: target on every round (see ``_wait_for_result``).
_IDLE_GRACE_ROUNDS = 25


class SendManager:
    """Registration and transport for the send command."""

    def __init__(self, app, requested_name: str):
        self.app = app
        display = app.display
        self.registry_atom = display.intern_atom(_REGISTRY_PROPERTY)
        self.comm_atom = display.intern_atom(_COMM_PROPERTY)
        self.string_atom = display.intern_atom("STRING")
        #: per-send deadline, in virtual milliseconds (configurable)
        self.timeout_ms = _DEFAULT_TIMEOUT_MS
        self.idle_grace = _IDLE_GRACE_ROUNDS
        #: this application's send serials: their digits cross the wire,
        #: so other applications in the process must not move them (in
        #: Tk a process held one application)
        self._serials = itertools.count(1)
        # The communication window: an unmapped child of the root.
        self.comm_window = display.create_window(display.root, 0, 0, 1, 1)
        display.select_input(self.comm_window, ev.PROPERTY_CHANGE_MASK)
        # The comm window is a mailbox: other clients write requests and
        # replies into its Comm property, so its owner must grant them
        # property-write access (the server enforces ownership).
        display.set_property_access(self.comm_window, True)
        self.name = self._register(requested_name)
        #: serial -> (code, result, error_info) for completed sends
        self._results: Dict[int, tuple] = {}
        metrics = app.obs.metrics
        self._m_rpcs = metrics.counter("send.rpcs")
        self._m_errors = metrics.counter("send.errors")
        #: virtual-ms spent per send (round trips dominate send cost)
        self._m_wait = metrics.histogram("send.wait_ms")
        #: depth of nested _wait_for_result calls (reentrant sends)
        self._waiting = 0

    # ------------------------------------------------------------------
    # the registry property on the root window
    # ------------------------------------------------------------------

    def _read_registry(self) -> Dict[str, int]:
        entry = self.app.display.get_property(self.app.display.root,
                                              self.registry_atom)
        registry: Dict[str, int] = {}
        if entry is not None and isinstance(entry[1], str):
            for line in parse_list(entry[1]):
                fields = parse_list(line)
                if len(fields) == 2 and fields[1].isdigit():
                    registry[fields[0]] = int(fields[1])
        return registry

    def _write_registry(self, registry: Dict[str, int]) -> None:
        value = format_list(
            format_list([name, str(window)])
            for name, window in sorted(registry.items()))
        self.app.display.change_property(self.app.display.root,
                                         self.registry_atom,
                                         self.string_atom, value)

    def _window_alive(self, window: int) -> bool:
        """Probe whether a comm window still exists on the server."""
        try:
            return self.app.display.window_exists(window)
        except XProtocolError:
            # An injected protocol error makes the probe inconclusive;
            # assume alive and let the deadline decide.
            return True

    def _scrub(self, registry: Dict[str, int]) -> Tuple[Dict[str, int],
                                                        bool]:
        """Drop entries whose comm window is gone (crashed peers).

        Real Tk does exactly this in ``Tk_GetInterpNames`` and on every
        failed send: the registry is advisory, and dead entries are
        reclaimed by whoever notices them first.
        """
        alive: Dict[str, int] = {}
        changed = False
        for name, window in registry.items():
            if self._window_alive(window):
                alive[name] = window
            else:
                changed = True
        return alive, changed

    def _scrubbed_registry(self) -> Dict[str, int]:
        registry, changed = self._scrub(self._read_registry())
        if changed:
            self._write_registry(registry)
        return registry

    def _register(self, requested: str) -> str:
        # Reclaim names whose owner has died before picking a suffix,
        # so "foo" crashing and restarting gets "foo" back, not "foo #2".
        registry = self._scrubbed_registry()
        name = requested
        suffix = 2
        while name in registry:
            name = "%s #%d" % (requested, suffix)
            suffix += 1
        registry[name] = self.comm_window
        self._write_registry(registry)
        # Make the registration visible on the server immediately: other
        # applications read the registry through their own connections,
        # which cannot see requests sitting in this display's buffer.
        self.app.display.flush()
        return name

    def unregister(self) -> None:
        """Remove this application's entry and comm window.

        Called from application teardown so normal exits leave no
        stale registry entries behind.
        """
        try:
            registry = self._read_registry()
            if registry.pop(self.name, None) is not None:
                self._write_registry(registry)
        except XProtocolError:
            pass   # connection already gone; the scrubbers handle it
        try:
            self.app.display.destroy_window(self.comm_window)
        except XProtocolError:
            pass   # already destroyed (e.g. by a disconnect fault)

    def application_names(self) -> list:
        """All live application names (the ``winfo interps`` set)."""
        return sorted(self._scrubbed_registry())

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------

    def send(self, target_name: str, script: str,
             wait: bool = True) -> str:
        """Execute ``script`` in the application named ``target_name``.

        With ``wait`` false (``send -async``), the request is delivered
        but no reply is requested and the call returns immediately.
        """
        self._m_rpcs.value += 1
        jrec = self.app.server._jrec
        if jrec is not None:
            jrec.send_rpc(self.name, target_name, script, wait)
        start_ms = self.app.server.time_ms
        tracer = self.app.obs.tracer
        span = tracer.begin("send", target_name) if tracer.enabled \
            else None
        try:
            return self._send(target_name, script, wait)
        except TclError:
            self._m_errors.value += 1
            raise
        finally:
            self._m_wait.observe(self.app.server.time_ms - start_ms)
            if span is not None:
                tracer.finish(span)

    def _send(self, target_name: str, script: str,
              wait: bool = True) -> str:
        registry = self._read_registry()
        target_window = registry.get(target_name)
        if target_window is None or not self._window_alive(target_window):
            raise self._lookup_failed(registry, target_name)
        serial = next(self._serials)
        reply_window = self.comm_window if wait else 0
        request = format_list(["cmd", str(serial), str(reply_window),
                               script])
        try:
            # One list element per message: scripts may contain any
            # characters (including newlines), so the framing must not
            # depend on the payload.
            self.app.display.change_property(
                target_window, self.comm_atom, self.string_atom,
                [request], append=True)
        except XProtocolError:
            # The comm window vanished between the probe and the write.
            raise self._lookup_failed(registry, target_name)
        if not wait:
            return ""
        return self._wait_for_result(serial, target_name, target_window)

    def _lookup_failed(self, registry: Dict[str, int],
                       target_name: str) -> TclError:
        """Drop the target and scrub the rest of the registry, as real
        Tk does after a failed send; return the error to raise."""
        dropped = registry.pop(target_name, None) is not None
        registry, changed = self._scrub(registry)
        if dropped or changed:
            self._write_registry(registry)
        return TclError(
            'no registered interpreter named "%s"' % target_name)

    def _wait_for_result(self, serial: int, target_name: str,
                         target_window: int) -> str:
        """Pump every application until the reply to ``serial`` arrives.

        The target is probed only when the answer could change what
        happens next: after a round in which nothing ran (the reply
        cannot come from a quiet system, but a dead target explains the
        quiet), at the deadline (to tell a dead target from a slow one),
        and on every round once the wait has run more than
        ``idle_grace`` rounds.  The last rule bounds the wait when a
        third application keeps the system busy without issuing
        requests (``after 0`` re-armed forever): such a system never
        idles and the virtual clock only advances through the probes.
        """
        from .app import pump_all
        server = self.app.server
        deadline = server.time_ms + self.timeout_ms
        rounds = idle_rounds = 0
        self._waiting += 1
        try:
            while True:
                if serial in self._results:
                    return self._claim(serial, target_name)
                if server.time_ms >= deadline:
                    if not self._window_alive(target_window):
                        raise TclError("target application died")
                    raise TclError(
                        'send to "%s" timed out' % target_name)
                # Pumping is reentrant: events delivered here may start
                # nested sends (A→B→A), which wait on their own serials
                # through this same loop one frame deeper.
                busy = pump_all(server, max_rounds=1)
                rounds += 1
                if serial in self._results:
                    continue
                # Counted before the probe and the idle tick, either of
                # which may release a held event: the next round must
                # pump it before the wait gives up on it.
                plan = server.fault_plan
                held = plan.held_count() if plan is not None else 0
                if (not busy or rounds > self.idle_grace) and \
                        not self._window_alive(target_window):
                    raise TclError("target application died")
                if busy:
                    idle_rounds = 0
                    continue
                idle_rounds += 1
                # Nothing runnable anywhere.  Give up early if nothing
                # is even pending release; otherwise advance the virtual
                # clock so delayed (fault-held) events get released and
                # the deadline can expire.
                if held == 0 and idle_rounds > self.idle_grace:
                    raise TclError(
                        'send to "%s" timed out' % target_name)
                server.idle_tick()
        finally:
            self._waiting -= 1

    def _claim(self, serial: int, target_name: str) -> str:
        code, result, error_info = self._results.pop(serial)
        if code != "0":
            error = TclError(result)
            if error_info:
                # Seed the local trace with the remote one, so the
                # sender's errorInfo shows the cross-interpreter path.
                error.info = [error_info,
                              '    ("send" to interpreter "%s")'
                              % target_name]
            raise error
        return result

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------

    def maybe_handle(self, event) -> bool:
        """Intercept PropertyNotify on the comm window; True if consumed."""
        if event.type != ev.PROPERTY_NOTIFY or \
                event.window != self.comm_window or \
                event.atom != self.comm_atom or event.state == 1:
            return False
        try:
            entry = self.app.display.get_property(self.comm_window,
                                                  self.comm_atom,
                                                  delete=True)
        except XProtocolError:
            return True    # comm window torn down under us
        if entry is None:
            return True
        value = entry[1]
        if isinstance(value, str):
            messages = [value]
        else:
            messages = list(value)
        for message in messages:
            if str(message).strip():
                self._handle_message(str(message))
        return True

    def _handle_message(self, message: str) -> None:
        try:
            fields = parse_list(message)
        except TclError:
            return
        if len(fields) == 4 and fields[0] == "cmd":
            _, serial, reply_window, script = fields
            self._execute(serial, int(reply_window), script)
        elif len(fields) in (4, 5) and fields[0] == "result":
            serial, code, result = fields[1], fields[2], fields[3]
            error_info = fields[4] if len(fields) == 5 else ""
            self._results[int(serial)] = (code, result, error_info)

    def _execute(self, serial: str, reply_window: int, script: str) -> None:
        interp = self.app.interp
        try:
            result = interp.eval_detached(script)
            code, error_info = "0", ""
        except TclError as error:
            result = error.message
            code = "1"
            info = getattr(error, "info", None)
            error_info = "\n".join(info) if info else error.message
        except Exception as error:   # noqa: BLE001 — a Python-level bug
            # in a sent script must become an error *reply*, never kill
            # the target's event loop.
            result = "%s: %s" % (type(error).__name__, error)
            code = "1"
            error_info = result
        if reply_window == 0:
            return     # async send: no reply requested
        reply = format_list(["result", serial, code, result, error_info])
        try:
            self.app.display.change_property(
                reply_window, self.comm_atom, self.string_atom,
                [reply], append=True)
            # Deliver the reply now, as _register does the registry:
            # the sender's next pump round then finds its PropertyNotify
            # instead of idling into a liveness probe.
            self.app.display.flush()
        except Exception:
            pass  # sender disappeared; nothing to reply to
