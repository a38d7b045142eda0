"""CLI for the adversarial session fuzzer.

Modes::

    python -m repro.fuzz --seed S --sessions N [--steps L]
        [--plant NAME] [--save-repros DIR] [--shrink-budget B]
    python -m repro.fuzz --repro FILE [--expect-violation]
    python -m repro.fuzz --regress DIR

The first form generates and runs N seeded sessions (deterministic:
the same seed always produces the same scenarios and journals); on a
violation it delta-debugs the step list down to a minimal repro and —
with ``--save-repros`` — writes the shrunk journal, which replays with
``--repro``.  ``--regress`` validates a corpus directory: planted
journals must reproduce their violation (with the plant re-armed from
the header), unplanted journals must run clean and replay in every
ablation mode.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from ..obs.journal import Journal
from ..obs.replay import MODES, replay_all_modes
from ..obs.session import SessionSpec
from .gen import DEFAULT_LENGTH, generate_scenario
from .plants import PLANTS, plant
from .runner import run_scenario
from .shrink import DEFAULT_BUDGET, shrink_scenario


def derive_seed(master: int, index: int) -> int:
    """Per-session seed from the campaign seed — stable, collision-poor."""
    return (master * 1000003 + index * 7919 + 17) & 0x7FFFFFFF


def _fuzz(args) -> int:
    plant_name = args.plant
    if plant_name is None:
        plant_name = os.environ.get("REPRO_FUZZ_PLANT") or None
    failures = 0
    for index in range(args.sessions):
        seed = derive_seed(args.seed, index)
        scenario = generate_scenario(seed, length=args.steps,
                                     planted=plant_name)
        with plant(plant_name):
            result = run_scenario(scenario)
        status = "clean" if result.ok else \
            "VIOLATED (%s)" % ", ".join(sorted(result.kinds()))
        print("session %2d  seed=%-10d steps=%2d/%2d journal=%-5d %s"
              % (index, seed, result.steps_run, len(scenario.steps),
                 len(result.journal), status))
        if result.ok:
            continue
        failures += 1
        for violation in result.violations:
            print("    " + violation.format())
        minimal = _shrink_and_save(scenario, seed, result, plant_name,
                                   args)
        if minimal is not None and args.save_repros:
            print("    repro: python -m repro.fuzz --repro %s" % minimal)
    if failures:
        print("%d of %d sessions violated an invariant"
              % (failures, args.sessions))
    return 1 if failures else 0


def _shrink_and_save(scenario, seed: int, result,
                     plant_name: Optional[str], args) -> Optional[str]:
    kinds = result.kinds()
    check_replay = "replay-divergence" in kinds

    def rerun(candidate):
        with plant(plant_name):
            return run_scenario(candidate, check_replay=check_replay)

    minimal, runs = shrink_scenario(
        scenario, kinds, rerun, first_step=result.first_step(),
        budget=args.shrink_budget)
    with plant(plant_name):
        final = run_scenario(minimal)
    if final.ok:
        print("    shrink lost the violation (%d runs); keeping the "
              "original %d steps" % (runs, len(scenario.steps)))
        minimal, final = scenario, result
    else:
        print("    shrunk %d -> %d steps in %d runs"
              % (len(scenario.steps), len(minimal.steps), runs))
    if not args.save_repros:
        return None
    os.makedirs(args.save_repros, exist_ok=True)
    label = plant_name or "-".join(sorted(final.kinds()))
    path = os.path.join(args.save_repros,
                        "fuzz-%s-%d.journal" % (label, seed))
    final.journal.save(path)
    return path


def _repro(args) -> int:
    scenario = SessionSpec.from_journal(args.repro)
    with plant(scenario.planted):
        result = run_scenario(scenario)
    print(result.report())
    if args.expect_violation:
        if result.ok:
            print("expected a violation but the run was clean")
            return 1
        return 0
    return 0 if result.ok else 1


def _regress(args) -> int:
    paths = sorted(
        os.path.join(args.regress, name)
        for name in os.listdir(args.regress)
        if name.endswith(".journal"))
    if not paths:
        print("no .journal files under %s" % args.regress)
        return 2
    status = 0
    for path in paths:
        journal = Journal.load(path)
        scenario = SessionSpec.from_journal(journal)
        if scenario.planted:
            # A planted repro must still find its bug with the plant
            # re-armed — that is the regression it guards.
            with plant(scenario.planted):
                result = run_scenario(scenario)
            if result.ok:
                print("FAIL  %s: planted %s no longer reproduces"
                      % (path, scenario.planted))
                status = 1
            else:
                print("ok    %s: %s reproduces (%s)"
                      % (path, scenario.planted,
                         ", ".join(sorted(result.kinds()))))
            continue
        # An unplanted journal is a fixed real bug: it must run clean
        # and replay in every applicable ablation mode.  Faulted
        # sessions are held to the wire-exact modes only: a counts-mode
        # ablation changes the request stream, which moves where the
        # header's faults fire.
        result = run_scenario(scenario)
        if not result.ok:
            print("FAIL  %s: violations returned:" % path)
            for violation in result.violations:
                print("    " + violation.format())
            status = 1
            continue
        modes_arg = None
        if scenario.fault_spec:
            modes_arg = [mode for mode, policy in sorted(MODES.items())
                         if policy["compare"] == "exact"]
        modes = replay_all_modes(journal, modes=modes_arg)
        bad = [mode for mode, outcome in sorted(modes.items())
               if not outcome.matched]
        if bad:
            print("FAIL  %s: replay diverged in mode(s) %s"
                  % (path, ", ".join(bad)))
            status = 1
        else:
            print("ok    %s: clean, replays in %d modes"
                  % (path, len(modes)))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Adversarial session fuzzing with invariant "
                    "oracles and journal-shrunk repros.")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed (default 0)")
    parser.add_argument("--sessions", type=int, default=10,
                        help="number of seeded sessions (default 10)")
    parser.add_argument("--steps", type=int, default=DEFAULT_LENGTH,
                        help="steps per session (default %d)"
                        % DEFAULT_LENGTH)
    parser.add_argument("--plant", choices=sorted(PLANTS),
                        help="arm a planted bug (also via "
                             "REPRO_FUZZ_PLANT)")
    parser.add_argument("--save-repros", metavar="DIR",
                        help="write shrunk repro journals here")
    parser.add_argument("--shrink-budget", type=int,
                        default=DEFAULT_BUDGET,
                        help="max candidate runs per shrink")
    parser.add_argument("--repro", metavar="FILE",
                        help="re-run one repro journal and report")
    parser.add_argument("--expect-violation", action="store_true",
                        help="with --repro: exit 0 iff the violation "
                             "reproduces")
    parser.add_argument("--regress", metavar="DIR",
                        help="validate a regression corpus directory")
    args = parser.parse_args(argv)
    if args.repro:
        return _repro(args)
    if args.regress:
        return _regress(args)
    return _fuzz(args)


if __name__ == "__main__":
    sys.exit(main())
