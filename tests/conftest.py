"""Crash forensics for CI: journal every X server, dump on failure.

When ``REPRO_JOURNAL_DIR`` is set (the CI test jobs set it), every
:class:`~repro.x11.xserver.XServer` built by any test records its
session into a bounded in-memory journal ring.  If a test fails, the
rings of the servers it created are written to that directory as
``*.journal`` files and uploaded as build artifacts — so a red CI run
ships the exact wire history that produced it, replayable locally with
``python -m repro.obs.replay`` (script-driven sessions) or readable
with ``Journal.load(...).format()``.

When ``REPRO_FLIGHT_DIR`` is additionally set, a failing test also
writes one flight-recorder artifact per server it created — the last
virtual seconds of spans, wire entries, recorder samples, and the full
metrics snapshot (see
:meth:`repro.obs.core.Observability.flight_dump`) — next to the
journals, giving the red run its telemetry timeline, not just its
wire history.

Without the environment variables this module does nothing: local runs
pay no overhead and keep their exact hot-path behavior.
"""

import os
import re

import pytest

_JOURNAL_DIR = os.environ.get("REPRO_JOURNAL_DIR")

if _JOURNAL_DIR:
    from repro.obs.journal import Journal
    from repro.obs.session import SessionSpec
    from repro.x11.xserver import XServer

    #: servers created by the currently running test
    _servers = []
    _original_init = XServer.__init__

    def _journaling_init(self, *args, **kwargs):
        _original_init(self, *args, **kwargs)
        journal = Journal(clock=lambda: self.time_ms, maxlen=4096)
        journal.set_header(SessionSpec(name="pytest"))
        self.attach_journal(journal)
        _servers.append(self)

    XServer.__init__ = _journaling_init

    @pytest.fixture(autouse=True)
    def _fresh_journal_capture():
        _servers.clear()
        yield

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_makereport(item, call):
        outcome = yield
        report = outcome.get_result()
        if report.when == "call" and report.failed and _servers:
            os.makedirs(_JOURNAL_DIR, exist_ok=True)
            stem = re.sub(r"[^A-Za-z0-9_.-]+", "-", item.nodeid)
            for index, server in enumerate(_servers):
                if server.journal is not None and len(server.journal):
                    path = os.path.join(_JOURNAL_DIR, "%s-%d.journal"
                                        % (stem, index))
                    server.journal.save(path)
                # Flight artifact next to the journal: autodump is a
                # no-op unless REPRO_FLIGHT_DIR is set, and never
                # raises — forensics must not mask the test failure.
                server.obs.flight_autodump("test-%s-%d" % (stem, index))
