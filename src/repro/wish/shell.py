"""wish — the windowing shell (paper section 5).

wish consists of Tcl, Tk, and a main program that reads Tcl commands
from standard input or from a file.  Entire windowing applications can
be written as wish scripts, just as UNIX commands can be written as
scripts for sh or csh; the paper's Figure 9 directory browser is a
21-line wish script.

A :class:`Wish` can be embedded (tests create several on one simulated
server) or run from the command line via :func:`main`.
"""

from __future__ import annotations

import sys
from typing import List, Optional

from ..obs.journal import JOURNAL_RING
from ..obs.session import Session, SessionConfig, SessionSpec
from ..tcl.errors import TclError
from ..tcl.lists import format_list
from ..x11.xserver import XServer
from .procs import ProcessRegistry


class Wish:
    """One windowing-shell application."""

    def __init__(self, server: Optional[XServer] = None,
                 name: str = "wish", stdout=None,
                 registry: Optional[ProcessRegistry] = None,
                 argv: Optional[List[str]] = None,
                 cache_enabled: bool = True,
                 compile_enabled: bool = True,
                 buffering_enabled: bool = True,
                 bytecode_enabled: bool = True):
        self.server = server if server is not None else XServer()
        config = SessionConfig(cache_enabled=cache_enabled,
                               compile_enabled=compile_enabled,
                               buffering_enabled=buffering_enabled,
                               bytecode_enabled=bytecode_enabled)
        self.app = config.build_app(
            self.server, name,
            stdout=stdout if stdout is not None else sys.stdout)
        self.interp = self.app.interp
        self.registry = registry if registry is not None \
            else ProcessRegistry()
        self.interp.exec_handler = self.registry
        self._set_argv(argv or [])
        self._load_library()

    def _load_library(self) -> None:
        """Source wish's Tcl support library (mkdialog and friends)."""
        import os
        library = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "library.tcl")
        with open(library, "r") as handle:
            self.interp.eval(handle.read())

    def _set_argv(self, argv: List[str]) -> None:
        self.interp.set_global_var("argc", str(len(argv)))
        self.interp.set_global_var("argv", format_list(argv))

    # -- running scripts ---------------------------------------------------

    def run_script(self, script: str) -> str:
        """Evaluate a whole script, then process pending events."""
        result = self.interp.eval_top(script)
        self.app.update()
        return result

    def run_file(self, filename: str) -> str:
        with open(filename, "r") as handle:
            return self.run_script(handle.read())

    def mainloop(self, until=None, max_iterations: int = 1000000) -> None:
        self.app.mainloop(until, max_iterations)

    @property
    def destroyed(self) -> bool:
        return self.app.destroyed


def main(argv: Optional[List[str]] = None) -> int:
    """Command-line entry point:
    ``wish ?-f script? ?-name name? ?--no-bytecode? ?--trace?
    ?--metrics-out file? ?--journal file?
    ?--replay file ?--replay-mode mode?? ?args?``.

    ``--no-bytecode`` runs the interpreter with the bytecode VM
    disabled (the tree-walking ablation), and is recorded in the
    journal header so replays rebuild the same configuration.

    ``--trace`` starts the span tracer before the script runs and
    prints the span tree to stderr on exit; ``--metrics-out FILE``
    writes the full observability dump (metrics + trace + profile) as
    JSON when the shell exits.  ``--journal FILE`` records the whole
    session (inputs, every request in order, batches, round trips,
    faults, sends) to FILE as it runs — the one log of the request
    stream; ``--replay FILE`` re-runs a recorded session against a
    fresh shell and reports wire divergence
    (``--replay-mode`` selects an ablation mode; exit status 1 on
    divergence).
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    script_file = None
    name = "wish"
    trace = False
    metrics_out = None
    journal_out = None
    replay_file = None
    replay_modes: List[str] = []
    bytecode_enabled = True
    while argv:
        if argv[0] == "-f" and len(argv) > 1:
            script_file = argv[1]
            argv = argv[2:]
        elif argv[0] == "--no-bytecode":
            bytecode_enabled = False
            argv = argv[1:]
        elif argv[0] == "-name" and len(argv) > 1:
            name = argv[1]
            argv = argv[2:]
        elif argv[0] == "--trace":
            trace = True
            argv = argv[1:]
        elif argv[0] == "--metrics-out" and len(argv) > 1:
            metrics_out = argv[1]
            argv = argv[2:]
        elif argv[0] == "--journal" and len(argv) > 1:
            journal_out = argv[1]
            argv = argv[2:]
        elif argv[0] == "--replay" and len(argv) > 1:
            replay_file = argv[1]
            argv = argv[2:]
        elif argv[0] == "--replay-mode" and len(argv) > 1:
            replay_modes.append(argv[1])
            argv = argv[2:]
        else:
            break
    if replay_file is not None:
        return _replay_main(replay_file, replay_modes or ["default"])

    script = None
    if script_file is not None:
        with open(script_file, "r") as handle:
            script = handle.read()
    spec = SessionSpec(setup_script=script or "", name=name,
                       config=SessionConfig(
                           bytecode_enabled=bytecode_enabled))
    session = Session(XServer(), spec)
    shell = None

    def setup(session):
        nonlocal shell
        shell = Wish(server=session.server, name=name, argv=argv,
                     **session.spec.config.to_flags())
        return shell.app

    # With --journal the recording starts before the shell exists, so
    # it covers application construction: the replay rebuilds the
    # shell the same way, against its own fresh server.
    session.launch(ring=JOURNAL_RING if journal_out is not None else None,
                   sink=journal_out, setup=setup)
    obs = shell.app.obs
    if trace or metrics_out is not None:
        obs.tracer.start()
    try:
        if script is not None:
            shell.run_script(script)
            shell.mainloop()
        else:
            _interactive(shell)
    except TclError as error:
        sys.stderr.write("Error: %s\n" % error.message)
        return 1
    finally:
        obs.tracer.stop()
        session.stop_recording()
        if trace:
            sys.stderr.write(obs.tracer.format_tree() + "\n")
        if metrics_out is not None:
            with open(metrics_out, "w") as handle:
                handle.write(obs.dump_json() + "\n")
    return 0


def _replay_main(path: str, modes: List[str]) -> int:
    """``wish --replay FILE``: re-run a journal, report divergence."""
    import io as _io
    from ..obs.journal import Journal
    from ..obs.replay import MODES, replay_journal

    journal = Journal.load(path)
    try:
        SessionConfig.from_header(journal.meta)
    except ValueError as error:
        sys.stderr.write("wish: %s: bad journal header: %s\n"
                         % (path, error))
        return 2
    status = 0
    for mode in modes:
        if mode not in MODES:
            sys.stderr.write(
                'wish: unknown replay mode "%s" (choose from %s)\n'
                % (mode, ", ".join(sorted(MODES))))
            return 2

        def setup(session):
            spec = session.spec
            shell = Wish(server=session.server, name=spec.name,
                         stdout=_io.StringIO(),
                         **spec.config.to_flags())
            script = spec.setup_script
            if script:
                shell.run_script(script)
            else:
                shell.app.update()
            return shell.app

        result = replay_journal(journal, mode=mode, setup=setup)
        sys.stderr.write(result.report() + "\n")
        if not result.matched:
            status = 1
    return status


def _interactive(shell: Wish) -> None:
    """Read commands from standard input, one logical line at a time."""
    buffer = ""
    while not shell.destroyed:
        try:
            prompt = "% " if not buffer else "> "
            line = input(prompt)
        except EOFError:
            return
        buffer += line + "\n"
        if _script_complete(buffer):
            jrec = shell.server._jrec
            if jrec is not None:
                # Interactive input is session input: journal it so a
                # replay re-evaluates the same script at the same point.
                jrec.input("eval", (buffer, shell.app.name))
            try:
                result = shell.run_script(buffer)
                if result:
                    print(result)
            except TclError as error:
                print("Error: %s" % error.message)
            buffer = ""


def _script_complete(text: str) -> bool:
    """Heuristic: all braces/brackets/quotes are balanced."""
    depth = 0
    in_quote = False
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\":
            i += 2
            continue
        if in_quote:
            if ch == '"':
                in_quote = False
        elif ch == '"':
            in_quote = True
        elif ch in "{[":
            depth += 1
        elif ch in "}]":
            depth -= 1
        i += 1
    return depth <= 0 and not in_quote


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
