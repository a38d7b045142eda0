"""Deterministic replay of recorded sessions, with wire diffing.

A journal recorded by :mod:`repro.obs.journal` contains two things a
replay needs: the session *inputs* (injected pointer/key events, event
-loop pumps, clock advances, top-level script evaluations) and the
resulting *wire stream* (every request that reached the server, in
order).  :func:`replay_journal` rebuilds the application from the
journal header — fresh :class:`~repro.x11.xserver.XServer`, the
header's :class:`~repro.obs.session.SessionConfig`, the recorded
setup script — re-injects the recorded inputs, and diffs the wire
stream of the replay against the recording.  Recording
(:func:`record_session`, the fuzz runner, a recording fleet session)
and replay execute inputs through the one
:class:`~repro.obs.session.Session` executor, so the two sides share
their error semantics by construction; this module adds only the
journal plumbing and the diff.  Because every clock in the simulator
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

from .journal import Journal
from .session import Session, SessionConfig

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
#: * ``filtered`` — streams must match after removing the allowed
#:   types (whose counts become the expected delta);
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
            if compare == "filtered":
                recorded = [op for op in recorded
                            if op[0] not in allowed]
                replayed = [op for op in replayed
                            if op[0] not in allowed]
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

def start_recording(server, name: str = "session", script: str = "",
                    config: Optional[SessionConfig] = None,
                    sink: Optional[str] = None,
                    maxlen: Optional[int] = None,
                    fault_plan=None,
                    planted: Optional[str] = None) -> Journal:
    """Attach a fresh recording journal to ``server`` and return it.

    ``config`` is written to the header's ``flags``.  ``fault_plan``
    may be a live :class:`~repro.x11.faults.FaultPlan` (installed on
    the server and serialized into the header) or an
    already-serialized spec dict (embedded verbatim; the caller
    installed the plan).  ``planted`` names the active test-only
    planted bug, if any, so regression journals know what to arm.
    """
    from .journal import JOURNAL_RING
    fault_spec = None
    if fault_plan is not None:
        if isinstance(fault_plan, dict):
            fault_spec = fault_plan
        else:
            fault_spec = fault_plan.to_spec()
            server.install_fault_plan(fault_plan)
    journal = Journal(clock=lambda: server.time_ms,
                      maxlen=maxlen if maxlen is not None
                      else JOURNAL_RING, sink=sink)
    journal.set_header(name=name, script=script, config=config,
                       fault_plan=fault_spec, planted=planted)
    journal.open_sink()
    server.attach_journal(journal)
    return journal


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
    application, whose name the journal records.  Steps run through
    the same :class:`~repro.obs.session.Session` executor that
    :func:`replay_journal` uses, with no error sink: an exception in
    setup or in a step surfaces to the caller.  The one exception is
    a header fault plan killing construction, which records a session
    with no application.
    """
    from ..x11.xserver import XProtocolError, XServer

    server = XServer()
    journal = start_recording(server, name=name, script=script,
                              config=config, sink=sink,
                              fault_plan=fault_plan, planted=planted)
    session = Session(server, config, journal=journal)
    try:
        try:
            session.start(name, script)
        except XProtocolError:
            if fault_plan is None:
                raise
        for step in steps:
            kind, args = step[0], list(step[1:])
            if kind in ("update", "advance", "eval"):
                args.append(name)
            session.apply(kind, args)
    finally:
        server.detach_journal()
        journal.close_sink()
        session.close()
    return journal


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

    If the header embeds a serialized fault plan, an identical plan is
    installed on the fresh server before the application is built, so
    recorded faults re-fire at the same request ticks.  The result
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
    header = journal.meta or {}
    config = replace(SessionConfig.from_header(header), **policy["flags"])
    if script is None:
        script = header.get("script") or ""
    name = header.get("name") or "replay"
    fault_spec = header.get("fault_plan")

    server = XServer()
    if fault_spec:
        from ..x11.faults import FaultPlan
        server.install_fault_plan(FaultPlan.from_spec(fault_spec))
    replay_log = Journal(clock=lambda: server.time_ms,
                         maxlen=max(journal.maxlen, len(journal) * 2))
    # Pass the original spec dict through verbatim so a default-mode
    # replay's header — and therefore its whole JSONL — can match the
    # recording byte for byte.
    replay_log.set_header(name=name, script=script, config=config,
                          fault_plan=fault_spec,
                          planted=header.get("planted"))
    server.attach_journal(replay_log)
    swallowed: List[Tuple[str, BaseException]] = []
    session = Session(server, config, transport=transport,
                      journal=replay_log, errors=swallowed)
    try:
        # A header fault plan can fire during construction itself; the
        # recording survived that, so the replay must too.
        session.start(name, script, setup=setup)
        for input_name, args in journal.inputs():
            session.apply(input_name, args)
    finally:
        server.detach_journal()
        session.close()
        shutdown_host(server)
    result = ReplayResult(mode, journal.wire(), replay_log.wire(),
                          policy["compare"], policy["allowed"],
                          truncated=journal.dropped > 0)
    result.replay_log = replay_log
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
           "start_recording", "record_session", "replay_journal",
           "replay_all_modes", "main"]
