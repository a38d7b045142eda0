"""The ``obs`` command: observability from inside the interpreter.

In Tk's spirit of exposing the toolkit's internals to scripts, the
metrics registry, span tracer, and profiler of the interpreter's
:class:`repro.obs.Observability` hub (application-wide once a
:class:`~repro.tk.TkApp` has rebound the interpreter) are driven from
Tcl::

    obs metrics ?pattern?              formatted metric listing
    obs trace start                    begin collecting spans
    obs trace stop                     stop collecting
    obs trace clear                    discard collected spans
    obs trace dump ?-format text|json? the span tree
    obs profile report ?-limit n?      aggregated span attribution
    obs journal start ?-file FILE?     record the session journal
    obs journal stop                   stop recording
    obs journal dump ?-limit n?        formatted journal listing (the
                                       ordered log of every X request)
    obs journal save FILE              write the journal as JSONL
    obs recorder start ?-cadence N? ?-ring N?
                                       start the time-series recorder
    obs recorder stop                  stop sampling (series readable)
    obs recorder dump ?pattern?        recorded series, one per line
    obs flight save FILE ?-window MS?  flight dump (spans, samples, and
                                       the attached journal's requests)
    obs dump ?-format json?            metrics+trace+profile as JSON

``info metrics`` returns the same data as ``obs metrics`` but as a
flat name/value Tcl list for scripting, mirroring ``info
compilecache``.
"""

from __future__ import annotations

import json
from typing import List

from ..errors import TclError


def cmd_obs(interp, argv: List[str]) -> str:
    if len(argv) < 2:
        raise TclError(
            'wrong # args: should be "obs option ?arg ...?"')
    option = argv[1]
    obs = interp.obs
    if option == "metrics":
        if len(argv) > 3:
            raise TclError(
                'wrong # args: should be "obs metrics ?pattern?"')
        pattern = argv[2] if len(argv) == 3 else None
        return obs.metrics.format(pattern)
    if option == "trace":
        return _trace(obs, argv)
    if option == "profile":
        return _profile(obs, argv)
    if option == "journal":
        return _journal(interp, obs, argv)
    if option == "recorder":
        return _recorder(obs, argv)
    if option == "flight":
        return _flight(obs, argv)
    if option == "dump":
        fmt = _format_flag(argv, 2, default="json")
        if fmt != "json":
            raise TclError('bad format "%s": should be json' % fmt)
        return obs.dump_json()
    raise TclError(
        'bad option "%s": should be dump, flight, journal, metrics, '
        'profile, recorder, or trace' % option)


def _trace(obs, argv: List[str]) -> str:
    if len(argv) < 3:
        raise TclError(
            'wrong # args: should be "obs trace option ?arg ...?"')
    action = argv[2]
    tracer = obs.tracer
    if action == "start":
        if len(argv) != 3:
            raise TclError(
                'wrong # args: should be "obs trace start"')
        tracer.start()
        return ""
    if action == "stop":
        tracer.stop()
        return ""
    if action == "clear":
        tracer.clear()
        return ""
    if action == "dump":
        fmt = _format_flag(argv, 3, default="text")
        if fmt == "text":
            return tracer.format_tree()
        if fmt == "json":
            return json.dumps(tracer.to_dict(), indent=2,
                              sort_keys=True)
        raise TclError('bad format "%s": should be text or json' % fmt)
    raise TclError(
        'bad option "%s": should be clear, dump, start, or stop'
        % action)


def _profile(obs, argv: List[str]) -> str:
    if len(argv) < 3 or argv[2] != "report":
        raise TclError(
            'wrong # args: should be "obs profile report ?-limit n?"')
    limit = 20
    rest = argv[3:]
    while rest:
        if rest[0] == "-limit" and len(rest) >= 2:
            try:
                limit = int(rest[1])
            except ValueError:
                raise TclError('expected integer but got "%s"' % rest[1])
            rest = rest[2:]
        else:
            raise TclError('bad switch "%s": must be -limit' % rest[0])
    return obs.profile().report(limit=limit)


def _journal(interp, obs, argv: List[str]) -> str:
    if len(argv) < 3:
        raise TclError(
            'wrong # args: should be "obs journal option ?arg ...?"')
    action = argv[2]
    server = getattr(obs, "server", None)
    if server is None:
        raise TclError("obs journal: no X server attached to this "
                       "interpreter")
    if action == "start":
        sink = None
        rest = argv[3:]
        while rest:
            if rest[0] == "-file" and len(rest) >= 2:
                sink = rest[1]
                rest = rest[2:]
            else:
                raise TclError('bad switch "%s": must be -file'
                               % rest[0])
        if server.journal is not None:
            # Start means *a new recording*: release the previous
            # journal (it may be a harness-attached background one).
            server.detach_journal()
            server.journal.close_sink()
        from ...obs.session import (SessionConfig, SessionSpec,
                                    start_recording)
        app = getattr(interp, "tk_app", None)
        start_recording(
            server, SessionSpec(
                name=app.name if app is not None else "session",
                config=SessionConfig.from_interp(interp)), sink=sink)
        return ""
    journal = server.journal
    if journal is None:
        raise TclError("obs journal: no journal recorded "
                       '(use "obs journal start")')
    if action == "stop":
        server.detach_journal()
        journal.close_sink()
        return ""
    if action == "dump":
        limit = None
        rest = argv[3:]
        while rest:
            if rest[0] == "-limit" and len(rest) >= 2:
                try:
                    limit = int(rest[1])
                except ValueError:
                    raise TclError('expected integer but got "%s"'
                                   % rest[1])
                rest = rest[2:]
            else:
                raise TclError('bad switch "%s": must be -limit'
                               % rest[0])
        return journal.format(limit=limit)
    if action == "save":
        if len(argv) != 4:
            raise TclError(
                'wrong # args: should be "obs journal save fileName"')
        journal.save(argv[3])
        return ""
    raise TclError(
        'bad option "%s": should be dump, save, start, or stop'
        % action)


def _recorder(obs, argv: List[str]) -> str:
    if len(argv) < 3:
        raise TclError(
            'wrong # args: should be "obs recorder option ?arg ...?"')
    action = argv[2]
    if action == "start":
        cadence = ring = None
        rest = argv[3:]
        while rest:
            if rest[0] == "-cadence" and len(rest) >= 2:
                cadence = _int_arg(rest[1])
                rest = rest[2:]
            elif rest[0] == "-ring" and len(rest) >= 2:
                ring = _int_arg(rest[1])
                rest = rest[2:]
            else:
                raise TclError('bad switch "%s": must be -cadence or '
                               "-ring" % rest[0])
        try:
            obs.start_recorder(cadence_ms=cadence, ring=ring)
        except ValueError as error:
            raise TclError("obs recorder start: %s" % error)
        return ""
    if action == "stop":
        obs.stop_recorder()
        return ""
    if action == "dump":
        if len(argv) > 4:
            raise TclError(
                'wrong # args: should be "obs recorder dump ?pattern?"')
        if obs.recorder is None:
            raise TclError("obs recorder: not started "
                           '(use "obs recorder start")')
        pattern = argv[3] if len(argv) == 4 else None
        return obs.recorder.format(pattern)
    raise TclError(
        'bad option "%s": should be dump, start, or stop' % action)


def _flight(obs, argv: List[str]) -> str:
    if len(argv) < 3 or argv[2] != "save":
        raise TclError(
            'wrong # args: should be '
            '"obs flight save fileName ?-window ms?"')
    if len(argv) < 4:
        raise TclError(
            'wrong # args: should be '
            '"obs flight save fileName ?-window ms?"')
    path = argv[3]
    from ...obs.core import FLIGHT_WINDOW_MS
    window = FLIGHT_WINDOW_MS
    rest = argv[4:]
    while rest:
        if rest[0] == "-window" and len(rest) >= 2:
            window = _int_arg(rest[1])
            rest = rest[2:]
        else:
            raise TclError('bad switch "%s": must be -window' % rest[0])
    return obs.save_flight(path, window_ms=window)


def _int_arg(word: str) -> int:
    try:
        return int(word)
    except ValueError:
        raise TclError('expected integer but got "%s"' % word)


def _format_flag(argv: List[str], start: int, default: str) -> str:
    rest = argv[start:]
    if not rest:
        return default
    if len(rest) == 2 and rest[0] == "-format":
        return rest[1]
    raise TclError(
        'bad switch "%s": must be -format' % rest[0])


def register(interp) -> None:
    interp.register("obs", cmd_obs)
