"""Deterministic fault injection for the simulated X server.

Real deployments of the toolkit die in ways the happy-path simulator
never exercises: a peer application crashes mid-``send``, the server
answers a request with BadWindow, events are lost or arrive late under
load.  A :class:`FaultPlan` installed on an
:class:`~repro.x11.xserver.XServer` creates those pathologies on
demand, in two modes that can be combined:

* a **seeded schedule** — per-fault-type probabilities drawn from a
  ``random.Random(seed)``, so a given seed plus a given workload always
  injects exactly the same faults (the fault-soak CI job relies on
  this);
* **scripted trigger points** — "raise BadAtom from the third
  ``get_property`` request", "drop the next PropertyNotify", "disconnect
  this client when it next touches the server" — for surgical tests.

Fault types:

``error``
    Raise :class:`~repro.x11.xserver.XProtocolError` (BadWindow,
    BadAtom, BadProperty, ...) from a request.
``disconnect``
    Close a client's connection mid-request.  The server destroys the
    client's windows, exactly as a real server does at close-down.
``drop``
    Silently discard an event instead of queueing it to a client.
``delay``
    Hold an event back for some virtual milliseconds before it reaches
    the client's queue.
``call``
    Run an arbitrary callback at a trigger point (for tests that need
    to, say, destroy an application in the middle of a peer's request).

Per-fault-type counters are kept in :attr:`FaultPlan.counters` and a
full log of injections in :attr:`FaultPlan.log`, so tests can assert
both that faults happened and that the toolkit recovered from them.

A plan is *serializable*: :meth:`FaultPlan.to_spec` captures the seed,
the rates, and the scripted schedule (with each trigger's remaining
skip/fire counters) as a JSON-safe dict, and
:meth:`FaultPlan.from_spec` rebuilds an equivalent plan.  The session
journal embeds the spec in its header, so replaying a faulted capture
re-injects exactly the same faults at exactly the same requests (see
:mod:`repro.obs.replay`).  Only ``call`` triggers — arbitrary Python
callbacks — have no serialized form and are dropped from the spec.

With output buffering (see :mod:`repro.x11.display`), one-way requests
reach the server at *flush* time, inside a batch: triggers fire when
the request is delivered, not when the client issued it.  The batch
write itself ticks the request stream as ``name="batch"`` before its
requests execute, so a scripted trigger on ``"batch"`` (e.g.
``disconnect_client(when="batch")``) models a connection that dies on
the wire write — exactly the spot Xlib discovers a dead server.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

from .xserver import Client, XProtocolError

#: Canonical fault-type names (the keys of ``FaultPlan.counters``).
ERROR = "error"
DISCONNECT = "disconnect"
DROP = "drop"
DELAY = "delay"
CALL = "call"

FAULT_TYPES = (ERROR, DISCONNECT, DROP, DELAY, CALL)

#: X protocol error names used by the seeded schedule.
ERROR_NAMES = ("BadWindow", "BadAtom", "BadProperty")


class _RequestTrigger:
    """One scripted trigger on the request stream."""

    def __init__(self, kind: str, name: Optional[str], after: int,
                 count: int, error: str = "BadWindow",
                 client: Optional[Client] = None,
                 callback: Optional[Callable] = None):
        self.kind = kind
        self.name = name          # request name to match; None = any
        self.skip = after         # matching requests to let through first
        self.count = count        # firings remaining
        self.error = error
        self.client = client
        self.callback = callback

    def matches(self, name: str) -> bool:
        return self.count > 0 and (self.name is None or self.name == name)


class _EventTrigger:
    """One scripted trigger on the event stream (drop or delay)."""

    def __init__(self, kind: str, count: int,
                 event_type: Optional[int] = None,
                 delay_ms: Optional[int] = None):
        self.kind = kind
        self.count = count
        self.event_type = event_type
        self.delay_ms = delay_ms

    def matches(self, event) -> bool:
        return self.count > 0 and (self.event_type is None or
                                   event.type == self.event_type)


class FaultPlan:
    """A deterministic schedule of faults for one X server."""

    def __init__(self, seed: int = 0,
                 error_rate: float = 0.0,
                 disconnect_rate: float = 0.0,
                 drop_rate: float = 0.0,
                 delay_rate: float = 0.0,
                 delay_ms: int = 20,
                 max_faults: Optional[int] = None,
                 warmup: int = 0,
                 errors: Tuple[str, ...] = ERROR_NAMES,
                 exempt_requests: Tuple[str, ...] = ()):
        self.random = random.Random(seed)
        self.seed = seed
        self.error_rate = error_rate
        self.disconnect_rate = disconnect_rate
        self.drop_rate = drop_rate
        self.delay_rate = delay_rate
        self.delay_ms = delay_ms
        self.max_faults = max_faults
        #: seeded faults hold off for the first ``warmup`` requests, so
        #: a plan can spare application startup (an error mid-TkApp
        #: construction is fatal, as it is for a real Xlib client);
        #: scripted triggers use their own ``after`` offsets instead.
        self.warmup = warmup
        self.errors = tuple(errors)
        self.exempt_requests = frozenset(exempt_requests)
        #: injections per fault type, for assertions
        self.counters: Dict[str, int] = {kind: 0 for kind in FAULT_TYPES}
        #: (request_index, fault_type, detail) per injection
        self.log: List[Tuple[int, str, str]] = []
        #: numbers of clients this plan disconnected (oracles use this
        #: to tell a fault-killed application from a cleanly-destroyed
        #: one)
        self.disconnected_clients: set = set()
        self._request_index = 0
        self._request_triggers: List[_RequestTrigger] = []
        self._event_triggers: List[_EventTrigger] = []
        #: held-back events: (release_time_ms, seq, client, event)
        self._held: List[tuple] = []
        self._held_seq = 0
        self._busy = False        # reentrancy guard while firing a fault
        #: per-type x11.faults counters once bound to a metrics registry
        self._metric_counters: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def total_injected(self) -> int:
        return sum(self.counters.values())

    def held_count(self) -> int:
        """Events currently delayed and awaiting release."""
        return len(self._held)

    def _exhausted(self) -> bool:
        return (self.max_faults is not None and
                self.total_injected >= self.max_faults)

    def bind_metrics(self, registry) -> None:
        """Mirror injections as ``x11.faults{type=...}`` counters.

        Called by :meth:`XServer.install_fault_plan`; counters are
        seeded from any injections recorded before binding, so a plan
        reused across servers stays consistent with ``counters``.
        """
        self._metric_counters = {}
        for kind in FAULT_TYPES:
            counter = registry.counter("x11.faults", type=kind)
            counter.value = self.counters[kind]
            self._metric_counters[kind] = counter

    def _record(self, kind: str, detail: str, server) -> None:
        self.counters[kind] += 1
        if self._metric_counters is not None:
            self._metric_counters[kind].value += 1
        jrec = server._jrec
        if jrec is not None:
            # Faults are journaled for forensics; a replay re-creates
            # them by rebuilding the plan from the journal header's spec.
            jrec.fault(kind, detail)
        tracer = server._tracer
        if tracer.enabled:
            # A fault span per injected action; inside a traced request
            # it parents under the issuing client's wire span.
            tracer.record_fault(kind, detail, server._trace_ctx)
        self.log.append((self._request_index, kind, detail))

    # ------------------------------------------------------------------
    # serialization (journal-header round trip)
    # ------------------------------------------------------------------

    def to_spec(self) -> dict:
        """The plan as a JSON-safe dict (seed, rates, scripted schedule).

        The spec captures the schedule *as currently configured*: each
        trigger's remaining ``after``/``count`` budget rides along, and
        the seed stands in for the random stream, so a plan serialized
        before its first draw re-injects identical faults when rebuilt
        and driven by the same request stream.  ``call`` triggers hold
        arbitrary Python callbacks and are dropped (their count is
        reported so callers can refuse to serialize such plans).
        """
        spec: dict = {"seed": self.seed}
        for field in ("error_rate", "disconnect_rate", "drop_rate",
                      "delay_rate"):
            value = getattr(self, field)
            if value:
                spec[field] = value
        if self.delay_ms != 20:
            spec["delay_ms"] = self.delay_ms
        if self.max_faults is not None:
            spec["max_faults"] = self.max_faults
        if self.warmup:
            spec["warmup"] = self.warmup
        if self.errors != ERROR_NAMES:
            spec["errors"] = list(self.errors)
        if self.exempt_requests:
            spec["exempt_requests"] = sorted(self.exempt_requests)
        triggers = []
        unserializable = 0
        for trigger in self._request_triggers:
            if trigger.kind == CALL:
                unserializable += 1
                continue
            entry: dict = {"kind": trigger.kind, "after": trigger.skip,
                           "count": trigger.count}
            if trigger.name is not None:
                entry["name"] = trigger.name
            if trigger.kind == ERROR:
                entry["error"] = trigger.error
            elif trigger.kind == DISCONNECT:
                entry["client"] = (trigger.client
                                   if isinstance(trigger.client, int)
                                   else trigger.client.number)
            triggers.append(entry)
        if triggers:
            spec["request_triggers"] = triggers
        if unserializable:
            spec["dropped_call_triggers"] = unserializable
        events = []
        for trigger in self._event_triggers:
            entry = {"kind": trigger.kind, "count": trigger.count}
            if trigger.event_type is not None:
                entry["event_type"] = trigger.event_type
            if trigger.kind == DELAY:
                entry["delay_ms"] = trigger.delay_ms
            events.append(entry)
        if events:
            spec["event_triggers"] = events
        return spec

    @classmethod
    def from_spec(cls, spec: dict) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_spec` output."""
        plan = cls(
            seed=spec.get("seed", 0),
            error_rate=spec.get("error_rate", 0.0),
            disconnect_rate=spec.get("disconnect_rate", 0.0),
            drop_rate=spec.get("drop_rate", 0.0),
            delay_rate=spec.get("delay_rate", 0.0),
            delay_ms=spec.get("delay_ms", 20),
            max_faults=spec.get("max_faults"),
            warmup=spec.get("warmup", 0),
            errors=tuple(spec.get("errors", ERROR_NAMES)),
            exempt_requests=tuple(spec.get("exempt_requests", ())))
        for entry in spec.get("request_triggers", ()):
            if entry["kind"] == ERROR:
                plan.fail_request(name=entry.get("name"),
                                  error=entry.get("error", "BadWindow"),
                                  after=entry.get("after", 0),
                                  count=entry.get("count", 1))
            elif entry["kind"] == DISCONNECT:
                plan.disconnect_client(entry["client"],
                                       on_request=entry.get("name"),
                                       after=entry.get("after", 0))
        for entry in spec.get("event_triggers", ()):
            if entry["kind"] == DROP:
                plan.drop_events(count=entry.get("count", 1),
                                 event_type=entry.get("event_type"))
            elif entry["kind"] == DELAY:
                plan.delay_events(count=entry.get("count", 1),
                                  delay_ms=entry.get("delay_ms"),
                                  event_type=entry.get("event_type"))
        return plan

    # ------------------------------------------------------------------
    # scripted trigger points
    # ------------------------------------------------------------------

    def fail_request(self, name: Optional[str] = None,
                     error: str = "BadWindow", after: int = 0,
                     count: int = 1) -> None:
        """Raise ``error`` from the next ``count`` requests named
        ``name`` (any request if None), skipping ``after`` matches."""
        self._request_triggers.append(
            _RequestTrigger(ERROR, name, after, count, error=error))

    def disconnect_client(self, client,
                          on_request: Optional[str] = None,
                          after: int = 0) -> None:
        """Disconnect ``client`` when the matching request arrives.

        ``client`` may be a :class:`~repro.x11.xserver.Client` or a
        client *number* — numbers are how deserialized plans name their
        victims, resolved against the live server at fire time.
        """
        self._request_triggers.append(
            _RequestTrigger(DISCONNECT, on_request, after, 1,
                            client=client))

    def call_on_request(self, callback: Callable,
                        name: Optional[str] = None, after: int = 0,
                        count: int = 1) -> None:
        """Run ``callback(server)`` at the matching request — the
        scripted hook tests use to kill an application mid-send."""
        self._request_triggers.append(
            _RequestTrigger(CALL, name, after, count, callback=callback))

    def drop_events(self, count: int = 1,
                    event_type: Optional[int] = None) -> None:
        """Silently discard the next ``count`` matching events."""
        self._event_triggers.append(_EventTrigger(DROP, count, event_type))

    def delay_events(self, count: int = 1,
                     delay_ms: Optional[int] = None,
                     event_type: Optional[int] = None) -> None:
        """Hold the next ``count`` matching events back for
        ``delay_ms`` virtual milliseconds."""
        self._event_triggers.append(
            _EventTrigger(DELAY, count, event_type,
                          delay_ms if delay_ms is not None
                          else self.delay_ms))

    # ------------------------------------------------------------------
    # hooks called by the server
    # ------------------------------------------------------------------

    def on_request(self, server, name: str) -> None:
        """Consulted from every server request; may raise or disconnect."""
        if self._busy:
            return
        self._request_index += 1
        self.release_due(server)
        if name in self.exempt_requests or self._exhausted():
            return
        for trigger in self._request_triggers:
            if not trigger.matches(name):
                continue
            if trigger.skip > 0:
                trigger.skip -= 1
                continue
            trigger.count -= 1
            self._fire_request_trigger(server, trigger, name)
        self._seeded_request_faults(server, name)

    def _fire_request_trigger(self, server, trigger: _RequestTrigger,
                              name: str) -> None:
        if trigger.kind == ERROR:
            self._record(ERROR, "%s from %s" % (trigger.error, name),
                         server)
            raise XProtocolError(
                "%s (injected fault during %s)" % (trigger.error, name))
        if trigger.kind == DISCONNECT:
            client = trigger.client
            if isinstance(client, int):
                client = next((candidate for candidate in server.clients
                               if candidate.number == client), None)
                if client is None:
                    return          # victim never connected in this run
            self._record(DISCONNECT, "client %d during %s"
                         % (client.number, name), server)
            self.disconnected_clients.add(client.number)
            self._guarded(server.disconnect, client)
            return
        if trigger.kind == CALL:
            self._record(CALL, "callback during %s" % name, server)
            self._guarded(trigger.callback, server)

    def _seeded_request_faults(self, server, name: str) -> None:
        if self._request_index <= self.warmup:
            return
        if self.error_rate > 0 and \
                self.random.random() < self.error_rate:
            error = self.random.choice(self.errors)
            self._record(ERROR, "%s from %s (seeded)" % (error, name),
                         server)
            raise XProtocolError(
                "%s (injected fault during %s)" % (error, name))
        if self.disconnect_rate > 0 and \
                self.random.random() < self.disconnect_rate:
            victims = [client for client in server.clients
                       if not client.closed]
            if victims:
                victim = self.random.choice(victims)
                self._record(DISCONNECT, "client %d during %s (seeded)"
                             % (victim.number, name), server)
                self.disconnected_clients.add(victim.number)
                self._guarded(server.disconnect, victim)

    def on_event(self, server, client: Client, event) -> bool:
        """Consulted before an event is queued; False means consumed."""
        if self._busy or self._exhausted():
            return True
        for trigger in self._event_triggers:
            if not trigger.matches(event):
                continue
            trigger.count -= 1
            if trigger.kind == DROP:
                self._record(DROP, "event type %d" % event.type, server)
                return False
            self._hold(server, client, event, trigger.delay_ms)
            return False
        if self.drop_rate > 0 and self.random.random() < self.drop_rate:
            self._record(DROP, "event type %d (seeded)" % event.type,
                         server)
            return False
        if self.delay_rate > 0 and self.random.random() < self.delay_rate:
            self._hold(server, client, event, self.delay_ms,
                       seeded=True)
            return False
        return True

    def _hold(self, server, client: Client, event, delay_ms: int,
              seeded: bool = False) -> None:
        self._record(DELAY, "event type %d for %d ms%s"
                     % (event.type, delay_ms,
                        " (seeded)" if seeded else ""), server)
        self._held_seq += 1
        self._held.append((server.time_ms + delay_ms, self._held_seq,
                           client, event))

    def release_due(self, server) -> None:
        """Move delayed events whose time has come into client queues."""
        if not self._held:
            return
        due = [entry for entry in self._held
               if entry[0] <= server.time_ms]
        if not due:
            return
        self._held = [entry for entry in self._held
                      if entry[0] > server.time_ms]
        for _, _, client, event in sorted(due, key=lambda e: (e[0], e[1])):
            if not client.closed:
                # Through the direct sink: the release must not be
                # re-dropped or re-delayed by the plan itself, but a
                # transport still needs to ship (and count) the frame.
                client.deliver_direct(event)

    def forget_client(self, client: Client) -> None:
        """Drop state referring to a disconnected client."""
        self._held = [entry for entry in self._held
                      if entry[2] is not client]

    def _guarded(self, fn: Callable, *args) -> None:
        """Run a fault action without re-triggering the plan."""
        self._busy = True
        try:
            fn(*args)
        finally:
            self._busy = False


__all__ = ["FaultPlan", "FAULT_TYPES", "ERROR", "DISCONNECT", "DROP",
           "DELAY", "CALL", "ERROR_NAMES"]
