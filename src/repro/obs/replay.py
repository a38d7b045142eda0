"""Deterministic replay of recorded sessions, with wire diffing.

A journal recorded by :mod:`repro.obs.journal` contains two things a
replay needs: the session *description* (the header plus the inputs:
injected pointer/key events, event-loop pumps, clock advances,
top-level script evaluations — together a
:class:`~repro.obs.session.SessionSpec`) and the resulting *wire
stream* (every request that reached the server, in order).
:func:`replay_journal` reads the spec back with
:meth:`SessionSpec.from_journal`, launches it on a fresh
:class:`~repro.x11.xserver.XServer` through the same
:meth:`Session.launch <repro.obs.session.Session.launch>` that
recording (:func:`record_session`, ``wish --journal``, the fuzz runner,
a recording fleet session) uses, re-injects the inputs through the one
:meth:`Session.apply <repro.obs.session.Session.apply>` executor, and
diffs the wire stream of the replay against the recording.  So the
two sides install the same fault plan, write their header from the
same kind of object and share their error semantics by construction;
this module adds only the diff.  Because every clock in the simulator
is virtual, a faithful implementation replays with **zero
divergence**, which turns any captured session (a bug report, a perf
regression, the checked-in golden session under ``examples/``) into a
regression test.

Ablation modes: the wire is *expected* to be invariant under the
compile-once ablation (``compile_enabled`` trades CPU, not traffic),
expected to differ only in resource-allocation requests under the
resource-cache ablation (§3.3: the cache exists precisely to remove
those), and expected to differ in batching/coalescing shape under the
output-buffer ablation.  Each mode in :data:`MODES` encodes that
expectation: requests attributable to the ablation are reported as an
*expected delta*; anything else diverges the replay.

Faulted sessions replay too: a journal whose header embeds a
serialized :class:`~repro.x11.faults.FaultPlan` (see
:meth:`FaultPlan.to_spec`) gets the same plan re-installed on the
fresh server before the application is rebuilt, so seeded and
scripted faults fire at the same request ticks and the wire — errors,
disconnects and all — replays deterministically.  Journals recorded
without a plan stay fault-free on replay.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Tuple

from .journal import JOURNAL_RING, Journal
from .session import Session, SessionConfig, SessionSpec

#: Request types the resource cache (§3.3) exists to eliminate — the
#: expected wire delta of replaying a capture with ``cache_enabled``
#: off (or on, against a cache-off capture).
CACHE_REQUESTS = frozenset((
    "alloc_named_color", "load_font", "create_cursor", "create_bitmap",
    "create_gc", "free_resource", "sync",
))

#: Request types whose count/shape the output buffer changes: the
#: batch write itself, plus every coalescible one-way request.
BUFFER_REQUESTS = frozenset((
    "batch", "configure_window", "select_input", "change_property",
    "clear_window", "fill_rectangle", "draw_rectangle", "draw_line",
    "draw_string", "sync",
))

#: mode -> (TkApp/Interp flag overrides, comparison policy, the
#: request types the ablation is allowed to perturb).
#:
#: * ``exact``    — request streams must match element for element;
#: * ``counts``   — per-type totals must match outside the allowed
#:   types (ordering is the ablation's to change).
MODES: Dict[str, dict] = {
    "default":       {"flags": {}, "compare": "exact",
                      "allowed": frozenset()},
    "compile_off":   {"flags": {"compile_enabled": False},
                      "compare": "exact", "allowed": frozenset()},
    # The bytecode VM is a pure CPU optimisation: running the same
    # capture through the tree walker must produce an identical wire.
    "bytecode_off":  {"flags": {"bytecode_enabled": False},
                      "compare": "exact", "allowed": frozenset()},
    # Cache misses are reply-bearing requests, and every reply-bearing
    # request is an auto-flush point: turning the cache off therefore
    # also moves batch boundaries and defeats some coalescing, so the
    # allowed set is the union of both ablations' request types and the
    # comparison is per-type counts.
    "cache_off":     {"flags": {"cache_enabled": False},
                      "compare": "counts",
                      "allowed": CACHE_REQUESTS | BUFFER_REQUESTS},
    "buffering_off": {"flags": {"buffering_enabled": False},
                      "compare": "counts", "allowed": BUFFER_REQUESTS},
}


class ReplayResult:
    """The outcome of one replay: divergence report + expected delta."""

    def __init__(self, mode: str, recorded: List[Tuple],
                 replayed: List[Tuple], compare: str,
                 allowed: frozenset, truncated: bool = False):
        self.mode = mode
        self.compare = compare
        self.recorded_requests = len(recorded)
        self.replayed_requests = len(replayed)
        self.truncated = truncated
        #: per-type (recorded, replayed) counts where they differ
        self.type_delta: Dict[str, Tuple[int, int]] = _type_delta(
            recorded, replayed)
        #: the slice of the delta the ablation mode predicts
        self.expected_delta = {name: delta for name, delta
                               in self.type_delta.items()
                               if name in allowed}
        self.unexpected_delta = {name: delta for name, delta
                                 in self.type_delta.items()
                                 if name not in allowed}
        self.first_divergence: Optional[int] = None
        self.context: List[dict] = []
        #: the replay's own Journal (byte-identity oracle input) and
        #: the exceptions the executor swallowed; filled by
        #: :func:`replay_journal`.
        self.replay_log: Optional[Journal] = None
        self.swallowed: List[Tuple[str, BaseException]] = []
        if compare == "counts":
            self.matched = not self.unexpected_delta and not truncated
        else:
            self.first_divergence = _first_divergence(recorded, replayed)
            self.matched = self.first_divergence is None and not truncated
            if self.first_divergence is not None:
                self.context = _context(recorded, replayed,
                                        self.first_divergence)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode, "matched": self.matched,
            "compare": self.compare,
            "recorded_requests": self.recorded_requests,
            "replayed_requests": self.replayed_requests,
            "first_divergence": self.first_divergence,
            "context": self.context,
            "expected_delta": {name: list(delta) for name, delta
                               in sorted(self.expected_delta.items())},
            "unexpected_delta": {name: list(delta) for name, delta
                                 in sorted(
                                     self.unexpected_delta.items())},
            "truncated": self.truncated,
        }

    def report(self) -> str:
        lines = ["REPLAY mode=%s: %s  (%d recorded / %d replayed "
                 "requests)"
                 % (self.mode,
                    "MATCH" if self.matched else "DIVERGED",
                    self.recorded_requests, self.replayed_requests)]
        if self.truncated:
            lines.append("  journal ring wrapped during recording: "
                         "wire stream incomplete, diff unreliable")
        for name, (rec, rep) in sorted(self.expected_delta.items()):
            lines.append("  expected delta (%s ablation)  %-24s "
                         "%d -> %d" % (self.mode, name, rec, rep))
        for name, (rec, rep) in sorted(self.unexpected_delta.items()):
            lines.append("  UNEXPECTED delta              %-24s "
                         "%d -> %d" % (name, rec, rep))
        if self.first_divergence is not None:
            lines.append("  first divergence at wire index %d:"
                         % self.first_divergence)
            for row in self.context:
                marker = ">>" if row["index"] == \
                    self.first_divergence else "  "
                lines.append("  %s %6d  recorded %-28s replayed %s"
                             % (marker, row["index"],
                                _op_str(row["recorded"]),
                                _op_str(row["replayed"])))
        return "\n".join(lines)


def _op_str(op) -> str:
    if op is None:
        return "-"
    name, window = op[0], op[1]
    detail = op[2] if len(op) > 2 else None
    text = "%s(w=%s)" % (name, window) if window is not None else name
    if detail:
        text += " {%s}" % detail
    return text


def _type_delta(recorded: List[Tuple],
                replayed: List[Tuple]) -> Dict[str, Tuple[int, int]]:
    counts: Dict[str, List[int]] = {}
    for side, ops in enumerate((recorded, replayed)):
        for op in ops:
            counts.setdefault(op[0], [0, 0])[side] += 1
    return {name: (rec, rep) for name, (rec, rep)
            in counts.items() if rec != rep}


def _first_divergence(recorded: List[Tuple],
                      replayed: List[Tuple]) -> Optional[int]:
    for index in range(min(len(recorded), len(replayed))):
        if tuple(recorded[index]) != tuple(replayed[index]):
            return index
    if len(recorded) != len(replayed):
        return min(len(recorded), len(replayed))
    return None


def _context(recorded: List[Tuple], replayed: List[Tuple],
             index: int, width: int = 3) -> List[dict]:
    rows = []
    for position in range(max(0, index - width), index + width + 1):
        rec = recorded[position] if position < len(recorded) else None
        rep = replayed[position] if position < len(replayed) else None
        if rec is None and rep is None:
            break
        rows.append({"index": position, "recorded": rec,
                     "replayed": rep})
    return rows


# ----------------------------------------------------------------------
# recording
# ----------------------------------------------------------------------

def record_session(script: str, steps: List[Tuple],
                   name: str = "session",
                   config: Optional[SessionConfig] = None,
                   sink: Optional[str] = None,
                   fault_plan=None,
                   planted: Optional[str] = None) -> Journal:
    """Record one scripted session from scratch and return its journal.

    Builds a fresh server and application, evaluates ``script`` (the
    setup: widgets, bindings, procs), pumps once, then drives ``steps``
    — tuples like ``("warp_pointer", x, y)``, ``("press_button", 1)``,
    ``("press_key", "a")``, ``("update",)``, ``("eval", tclscript)``,
    ``("new_app", name, setupscript)`` — recording everything.  The
    ``update``, ``advance`` and ``eval`` steps target the session's
    application, whose name the journal records.  ``fault_plan`` is a
    :class:`~repro.x11.faults.FaultPlan` read only as a description:
    the session installs a fresh plan rebuilt from its
    :meth:`~FaultPlan.to_spec`, exactly as the replay will, so the
    caller's object injects and logs nothing; every injected fault is
    a ``fault`` entry of the returned journal.  A plan with
    ``call_on_request`` triggers cannot be serialized and raises
    :class:`ValueError`.  The steps become a
    :class:`~repro.obs.session.SessionSpec` launched like every other
    session, with no error sink: an exception in setup or in a step
    surfaces to the caller.  The one exception is a header fault plan
    killing construction, which records a session with no application.
    """
    from ..x11.xserver import XProtocolError, XServer

    fault_spec = fault_plan.to_spec() if fault_plan is not None else None
    if fault_spec is not None and "dropped_call_triggers" in fault_spec:
        raise ValueError("a fault plan with call_on_request triggers "
                         "cannot be recorded: the journal header "
                         "cannot carry its callbacks")
    inputs = []
    for kind, *args in steps:
        if kind in ("update", "advance", "eval"):
            args.append(name)
        inputs.append((kind, args))
    spec = SessionSpec(
        inputs, setup_script=script,
        config=config if config is not None else SessionConfig(),
        fault_spec=fault_spec, planted=planted, name=name)
    session = Session(XServer(), spec)
    try:
        try:
            session.launch(ring=JOURNAL_RING, sink=sink)
        except XProtocolError:
            if spec.fault_spec is None:
                raise
        for kind, args in spec.steps:
            session.apply(kind, args)
    finally:
        session.close()
    return session.journal


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------

def replay_journal(journal: Journal, mode: str = "default",
                   script: Optional[str] = None,
                   setup: Optional[Callable] = None,
                   transport=None) -> ReplayResult:
    """Re-inject a journal's inputs against a fresh application and
    diff the resulting wire stream against the recording.

    ``mode`` selects the ablation flags and comparison policy from
    :data:`MODES`.  The setup script comes from the journal header
    unless ``script`` overrides it; ``setup`` (a callable taking the
    fresh :class:`~repro.obs.session.Session` and returning the
    driver app) replaces script-based construction entirely for
    Python-driven sessions.  ``transport`` chooses how the rebuilt
    applications reach the server (None / ``"loopback"`` /
    ``"socket"`` / a factory callable — see
    :func:`repro.x11.transport.resolve_transport`); the wire stream is
    transport-invariant, so a journal recorded in-process must replay
    cleanly over a socket.

    The replay launches the :class:`~repro.obs.session.SessionSpec`
    the journal records, with the mode's flags applied, so the fault
    plan the header embeds is installed before the application is
    built and recorded faults re-fire at the same request ticks, and
    the replay's header is written from that spec.  The result
    carries the replay's own journal at ``result.replay_log`` (the
    byte-identity oracle compares ``to_jsonl()`` of both sides) and
    the session's error sink at ``result.swallowed``.  A header whose
    ``flags`` are malformed raises :class:`ValueError`.
    """
    from ..x11.transport import shutdown_host
    from ..x11.xserver import XServer

    if mode not in MODES:
        raise ValueError('unknown replay mode "%s" (choose from %s)'
                         % (mode, ", ".join(sorted(MODES))))
    policy = MODES[mode]
    recorded = SessionSpec.from_journal(journal)
    spec = replace(recorded,
                   config=replace(recorded.config, **policy["flags"]),
                   setup_script=recorded.setup_script if script is None
                   else script,
                   transport=transport)
    server = XServer()
    swallowed: List[Tuple[str, BaseException]] = []
    session = Session(server, spec, errors=swallowed)
    try:
        # A header fault plan can fire during construction itself; the
        # recording survived that, so the replay must too.
        session.launch(ring=max(journal.maxlen, len(journal) * 2),
                       setup=setup)
        for kind, args in spec.steps:
            session.apply(kind, args)
    finally:
        session.close()
        shutdown_host(server)
    result = ReplayResult(mode, journal.wire(), session.journal.wire(),
                          policy["compare"], policy["allowed"],
                          truncated=journal.dropped > 0)
    result.replay_log = session.journal
    result.swallowed = swallowed
    return result


def replay_all_modes(journal: Journal,
                     modes: Optional[List[str]] = None
                     ) -> Dict[str, ReplayResult]:
    """Replay one journal under every (or the given) ablation modes."""
    results = {}
    for mode in (modes if modes is not None else sorted(MODES)):
        results[mode] = replay_journal(journal, mode=mode)
    return results


# ----------------------------------------------------------------------
# CLI: python -m repro.obs.replay session.journal [--mode MODE]
# ----------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    usage = ("usage: python -m repro.obs.replay FILE [--mode MODE]... "
             "[--all-modes] [--transport loopback|socket]")
    modes = []
    path = None
    transport = None
    while argv:
        if argv[0] == "--mode" and len(argv) > 1:
            modes.append(argv[1])
            argv = argv[2:]
        elif argv[0] == "--all-modes":
            modes = sorted(MODES)
            argv = argv[1:]
        elif argv[0] == "--transport" and len(argv) > 1:
            transport = argv[1]
            argv = argv[2:]
        elif path is None:
            path = argv[0]
            argv = argv[1:]
        else:
            print(usage)
            return 2
    if path is None:
        print(usage)
        return 2
    journal = Journal.load(path)
    try:
        SessionConfig.from_header(journal.meta)
    except ValueError as error:
        sys.stderr.write("%s: bad journal header: %s\n" % (path, error))
        return 2
    status = 0
    for mode in (modes or ["default"]):
        result = replay_journal(journal, mode=mode, transport=transport)
        if transport:
            print("TRANSPORT %s" % transport)
        print(result.report())
        if not result.matched:
            status = 1
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())


__all__ = ["MODES", "CACHE_REQUESTS", "BUFFER_REQUESTS", "ReplayResult",
           "record_session", "replay_journal",
           "replay_all_modes", "main"]
