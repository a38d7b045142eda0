"""Regenerate the checked-in golden session journal.

The golden session is a small but representative wish application — a
labelled entry form with a listbox and buttons — driven through pointer
warps, clicks, keystrokes, a timer, and a script evaluation, recorded
with :func:`repro.obs.replay.record_session`.  The resulting
``examples/golden.journal`` is replayed by the CI ``replay`` job (and
``tests/obs/test_replay.py``) in every ablation mode; any wire
divergence fails the build.

Because every clock in the simulator is virtual, regenerating the
journal on any machine produces a byte-identical file.  Run::

    PYTHONPATH=src python examples/record_golden.py

and commit the result only when a wire-visible change is intentional.
"""

import os
import sys

from repro.obs.replay import record_session
from repro.obs.session import Session
from repro.x11.xserver import XServer

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden.journal")

SCRIPT = """\
frame .form
label .form.title -text {Session journal demo}
entry .form.name
listbox .form.picks
.form.picks insert end alpha beta gamma
button .form.ok -text OK -command {set ::submitted [.form.name get]}
button .form.quit -text Quit -command {destroy .}
pack append .form .form.title {top} .form.name {top} \
    .form.picks {top} .form.ok {top} .form.quit {top}
pack append . .form {top}
focus .form.name
after 80 {set ::timer fired}
"""


def _center(app, path):
    window = app.window(path)
    root_x, root_y = window.root_position()
    return root_x + 2, root_y + 2


def build_steps():
    """Probe widget positions on a throwaway app (layout is
    deterministic), then script the input sequence against them."""
    probe = Session(XServer()).new_app("golden", SCRIPT)
    ok = _center(probe, ".form.ok")
    picks = _center(probe, ".form.picks")
    probe.destroy()
    return [
        ("update",),
        # type a name into the focused entry
        ("press_key", "t", 0, None), ("release_key", "t", 0, None),
        ("press_key", "k", 0, None), ("release_key", "k", 0, None),
        ("update",),
        # pick a list entry
        ("warp_pointer", picks[0], picks[1], 0),
        ("press_button", 1, 0), ("release_button", 1, 0),
        ("update",),
        # reconfigure a widget mid-session
        ("eval", ".form.title configure -text {Golden session}"),
        # let the after-timer fire
        ("advance", 90),
        ("update",),
        # submit the form
        ("warp_pointer", ok[0], ok[1], 0),
        ("press_button", 1, 0), ("release_button", 1, 0),
        ("update",),
    ]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    out = GOLDEN
    if argv[:1] == ["--out"] and len(argv) == 2:
        out = argv[1]
    elif argv:
        print("usage: record_golden.py [--out FILE]", file=sys.stderr)
        return 2
    journal = record_session(SCRIPT, build_steps(), name="golden")
    journal.save(out)
    print("wrote %s: %d entries, %s" % (out, len(journal),
                                        journal.counts()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
