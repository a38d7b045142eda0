"""Adversarial session fuzzing with invariant oracles.

The paper's central claim — a Tcl-scripted toolkit makes arbitrarily
complex interactive scenarios cheap to express — cuts both ways: the
space of widget trees, bindings, cross-interpreter sends, and
mid-dispatch destroys is far larger than any hand-written example
covers.  This package grows scenarios systematically instead:

* :mod:`repro.fuzz.gen` — seeded scenario generation (a scenario is
  a :class:`~repro.obs.session.SessionSpec`, the journal header plus
  its inputs, so every scenario is journal-serializable);
* :mod:`repro.fuzz.runner` — drives scenarios through the real
  ``TkApp``/``XServer`` stack under the session journal;
* :mod:`repro.fuzz.oracles` — invariants checked after every step
  (nothing escapes the dispatcher, no resource survives its owner,
  no delivery for dead clients, byte-identical replay);
* :mod:`repro.fuzz.shrink` — ddmin step minimization for violations;
* :mod:`repro.fuzz.plants` — deliberately planted bugs that prove the
  pipeline end-to-end in CI.

CLI: ``python -m repro.fuzz --seed S --sessions N`` (deterministic),
``--repro FILE`` to re-run a checked-in journal, ``--regress DIR`` for
the regression corpus under ``tests/regress/``.
"""

from .gen import generate_scenario
from .oracles import Violation
from .plants import PLANTS, plant
from .runner import FuzzResult, run_scenario
from .shrink import shrink_scenario

__all__ = ["generate_scenario", "Violation", "PLANTS", "plant",
           "FuzzResult", "run_scenario", "shrink_scenario"]
