"""Invariant oracles the fuzzer checks after every step.

Four invariants, each grounded in a contract the toolkit already
promises elsewhere:

``escape``
    No exception escapes the dispatcher: everything a script or widget
    raises routes to ``bgerror`` (PR 2's contract).  A ``TclError``
    from a *top-level* eval is the interpreter's normal error reporting
    and is allowed; anything escaping an event-loop pump is not.
``close-leak`` / ``selection-leak`` / ``stale-focus`` / ``stale-pointer``
    No X resource survives the destruction of its owner: a closed
    client's census bucket is empty, no selection claim outlives its
    window, and the server holds no destroyed window as focus or
    pointer target.
``registry-stale``
    A cleanly-destroyed application leaves no send-registry entry
    behind (the registry is advisory, so entries of *fault-killed*
    peers legitimately linger until a scrubbing lookup reclaims them —
    the fault plan's ``disconnected_clients`` set tells the two apart).
``dead-client-delivery``
    The output buffer never delivers a request on behalf of a closed
    connection: no ``req``/``batch`` journal entry attributed to a
    client may follow that client's ``disc`` entry.
``replay-divergence``
    The session journal replays byte-identically under
    ``replay_journal`` in default mode — determinism is itself an
    invariant.

Census and registry checks are purely introspective (no request ticks,
no events), so running them after every step cannot perturb the
session they are checking.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..tcl.errors import TclError
from ..x11.xserver import XProtocolError

#: Violation kinds whose detection requires the end-of-session replay.
SESSION_KINDS = frozenset(("dead-client-delivery", "replay-divergence"))


class Violation:
    """One invariant violation, tied to the step that surfaced it."""

    def __init__(self, kind: str, step: Optional[int], detail: str):
        self.kind = kind
        self.step = step          # step index; None = session-level
        self.detail = detail

    def __repr__(self) -> str:
        where = "step %d" % self.step if self.step is not None \
            else "session"
        return "<%s at %s: %s>" % (self.kind, where, self.detail)

    def format(self) -> str:
        where = "step %-3s" % self.step if self.step is not None \
            else "session "
        return "%s  %-21s %s" % (where, self.kind, self.detail)


def classify_swallowed(swallowed: List[Tuple[str, BaseException]],
                       step: Optional[int],
                       faulted: bool) -> List[Violation]:
    """Sort the executor's swallowed exceptions into violations.

    ``faulted`` is True when a fault plan is installed: injected
    protocol errors at input-injection points (and application
    construction or teardown killed by a fault) are then expected,
    not bugs.
    """
    out = []
    for stage, error in swallowed:
        if stage == "eval":
            if isinstance(error, TclError):
                continue        # ordinary script error: bgerror country
            out.append(Violation(
                "escape", step, "%s escaped a top-level eval: %s"
                % (type(error).__name__, error)))
        elif stage == "pump":
            out.append(Violation(
                "escape", step, "%s escaped the event loop: %s"
                % (type(error).__name__, error)))
        elif stage == "inject":
            if faulted and isinstance(error, XProtocolError):
                continue        # the plan fired at the input's own tick
            out.append(Violation(
                "escape", step, "%s escaped input injection: %s"
                % (type(error).__name__, error)))
        elif stage == "new_app":
            if faulted:
                continue        # construction killed by a fault
            out.append(Violation(
                "escape", step, "%s escaped application setup: %s"
                % (type(error).__name__, error)))
        elif stage == "teardown":
            if faulted:
                continue        # the plan fired into a destroy request
            out.append(Violation(
                "escape", step, "%s escaped application teardown: %s"
                % (type(error).__name__, error)))
    return out


def check_census(server, step: int, disconnected: Set[int],
                 app_clients: Dict[str, int]) -> List[Violation]:
    """The resource-ownership oracles, via ``resource_census()``."""
    out = []
    census = server.resource_census()
    for number, bucket in sorted(census.items()):
        if number == 0 or not bucket["closed"]:
            continue
        for field in ("windows", "resources", "properties",
                      "selections", "event_selections", "atoms"):
            if bucket[field]:
                out.append(Violation(
                    "close-leak", step,
                    "client %d is closed but still holds %s %s"
                    % (number, field, bucket[field][:8])))
    for atom, (window, owner) in sorted(server.selections.items(),
                                        key=lambda item: item[0]):
        if window.destroyed or window.id not in server.resources:
            out.append(Violation(
                "selection-leak", step,
                "selection atom %d still claimed by destroyed window %d"
                " (client %d)" % (atom, window.id, owner.number)))
    if server.focus_window.destroyed:
        out.append(Violation(
            "stale-focus", step,
            "server focus_window %d is destroyed"
            % server.focus_window.id))
    if server.pointer_window.destroyed:
        out.append(Violation(
            "stale-pointer", step,
            "server pointer_window %d is destroyed"
            % server.pointer_window.id))
    out.extend(_check_registry(server, step, disconnected, app_clients))
    return out


def _check_registry(server, step: int, disconnected: Set[int],
                    app_clients: Dict[str, int]) -> List[Violation]:
    """Stale send-registry entries of cleanly-destroyed applications."""
    from ..tcl.lists import parse_list
    atom = server.atoms.lookup("InterpRegistry")
    if not atom:
        return []
    entry = server.root.properties.get(atom)
    if entry is None or not isinstance(entry[1], str):
        return []
    try:
        lines = parse_list(entry[1])
    except TclError:
        return [Violation("registry-stale", step,
                          "registry property is not a valid list")]
    live = {app.name for app in getattr(server, "apps", [])
            if not app.destroyed}
    out = []
    for line in lines:
        try:
            fields = parse_list(line)
        except TclError:
            continue
        if len(fields) != 2:
            continue
        name = fields[0]
        if name in live:
            continue
        client = app_clients.get(name)
        if client is not None and client in disconnected:
            continue    # fault-killed peer: advisory entry, scrubbed lazily
        out.append(Violation(
            "registry-stale", step,
            'registry entry "%s" (comm window %s) survived a clean '
            "shutdown" % (name, fields[1])))
    return out


def check_dead_client_requests(journal) -> List[Violation]:
    """Scan the journal: no request delivery after a client's disc."""
    out = []
    dead: Set[int] = set()
    for entry in journal.entries():
        kind = entry["k"]
        if kind == "disc":
            dead.add(entry["client"])
        elif kind in ("req", "batch"):
            client = entry.get("client")
            if client is not None and client in dead:
                out.append(Violation(
                    "dead-client-delivery", None,
                    "%s %r (seq %d) delivered for closed client %d"
                    % (kind, entry.get("name", "batch"), entry["seq"],
                       client)))
    return out


def check_replay_identity(journal) -> List[Violation]:
    """Replay the journal in default mode; require byte-identity."""
    from ..obs.replay import replay_journal
    result = replay_journal(journal, mode="default")
    if result.replay_log is None:
        return [Violation("replay-divergence", None,
                          "replay produced no journal")]
    recorded = journal.to_jsonl().splitlines()
    replayed = result.replay_log.to_jsonl().splitlines()
    if recorded == replayed:
        return []
    index = next((i for i in range(min(len(recorded), len(replayed)))
                  if recorded[i] != replayed[i]),
                 min(len(recorded), len(replayed)))
    rec = recorded[index] if index < len(recorded) else "<end>"
    rep = replayed[index] if index < len(replayed) else "<end>"
    return [Violation(
        "replay-divergence", None,
        "journals diverge at line %d (%d recorded / %d replayed): "
        "recorded %.120s | replayed %.120s"
        % (index, len(recorded), len(replayed), rec, rep))]


__all__ = ["Violation", "SESSION_KINDS", "classify_swallowed",
           "check_census", "check_dead_client_requests",
           "check_replay_identity"]
