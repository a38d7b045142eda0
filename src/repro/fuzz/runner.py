"""Drive fuzz scenarios through the real TkApp/XServer stack.

The runner is a thin driver over a recording
:class:`~repro.obs.session.Session`: :meth:`Session.launch
<repro.obs.session.Session.launch>` installs the scenario's fault plan,
attaches the journal with the scenario's header and builds the main
application (the *same* launch :func:`repro.obs.replay.replay_journal`
uses, so recording and replay cannot drift apart); the session then
executes and journals every step, and :mod:`repro.fuzz.oracles` checks
the invariants after each step against the exceptions the step left in
the session's error sink.  A scenario's journal is its durable form:
:meth:`SessionSpec.from_journal <repro.obs.session.SessionSpec.from_journal>`
is the inverse.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..obs.journal import Journal
from ..obs.session import RECORD_RING, Session, SessionSpec
from . import oracles


class FuzzResult:
    """Outcome of one scenario run."""

    def __init__(self, spec: SessionSpec, journal: Journal,
                 violations: List[oracles.Violation], steps_run: int):
        self.spec = spec
        self.journal = journal
        self.violations = violations
        self.steps_run = steps_run

    @property
    def ok(self) -> bool:
        return not self.violations

    def kinds(self) -> set:
        return {violation.kind for violation in self.violations}

    def first_step(self) -> Optional[int]:
        """Index of the earliest step tied to a violation, if any."""
        steps = [violation.step for violation in self.violations
                 if violation.step is not None]
        return min(steps) if steps else None

    def report(self) -> str:
        lines = ["FUZZ %s: %s  (%d/%d steps, %d journal entries%s)"
                 % (self.spec.source or self.spec.name,
                    "CLEAN" if self.ok else "VIOLATED",
                    self.steps_run, len(self.spec.steps),
                    len(self.journal),
                    ", planted=%s" % self.spec.planted
                    if self.spec.planted else "")]
        for violation in self.violations:
            lines.append("  " + violation.format())
        return "\n".join(lines)


def run_scenario(spec: SessionSpec, stop_on_violation: bool = True,
                 check_replay: bool = True) -> FuzzResult:
    """Run one scenario under the journal with oracles after each step.

    ``check_replay`` gates the end-of-session byte-identity replay
    (the most expensive oracle); the shrinker disables it while
    minimizing violations the per-step oracles catch.
    """
    from ..x11.xserver import XServer

    server = XServer()
    swallowed: list = []
    session = Session(server, spec, errors=swallowed)
    violations: List[oracles.Violation] = []
    app_clients: Dict[str, int] = {}
    faulted = bool(spec.fault_spec)
    steps_run = 0
    try:
        app = session.launch(ring=RECORD_RING)
        disconnected = session.plan.disconnected_clients if faulted \
            else set()
        violations.extend(oracles.classify_swallowed(swallowed, -1,
                                                     faulted))
        if app is not None:
            app_clients[app.name] = app.display.client.number
            for index, (kind, args) in enumerate(spec.steps):
                steps_run = index + 1
                del swallowed[:]
                created = session.apply(kind, list(args))
                if created is not None:
                    app_clients[created.name] = \
                        created.display.client.number
                violations.extend(oracles.classify_swallowed(
                    swallowed, index, faulted))
                violations.extend(oracles.check_census(
                    server, index, disconnected, app_clients))
                if violations and stop_on_violation:
                    break
    finally:
        del swallowed[:]
        session.close()
        violations.extend(oracles.classify_swallowed(swallowed, None,
                                                     faulted))
    journal = session.journal
    violations.extend(oracles.check_dead_client_requests(journal))
    if check_replay and not violations:
        violations.extend(oracles.check_replay_identity(journal))
    if violations:
        # Forensics for the failure triage: the last virtual seconds
        # of the server hub's telemetry, saved only when a flight-dump
        # directory is configured (see Observability.flight_autodump).
        server.obs.flight_autodump(
            "oracle-%s" % sorted({violation.kind
                                  for violation in violations})[0])
    return FuzzResult(spec, journal, violations, steps_run)


__all__ = ["FuzzResult", "run_scenario"]
