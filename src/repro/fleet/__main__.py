"""CLI for the fleet load generator.

Usage::

    python -m repro.fleet [--sessions N] [--seed S] [--cell-size C]
                          [--journal FILE]... [--corpus DIR]
                          [--slow-journal FILE] [--top K] [--out FILE]

    python -m repro.fleet --repro seed:17        # rerun one scenario
    python -m repro.fleet --repro FILE.journal   # replay one capture

The fleet is filled with every ``--journal``/``--corpus`` capture
first, then with fuzz scenarios derived from ``--seed`` until
``--sessions`` specs exist.  ``--slow-journal PATH`` adds the
synthetic delay-plan outlier and saves its recorded journal to PATH.
``--repro`` takes exactly what the top-N-slowest report prints in its
``source`` column: a journal path (replayed and wire-diffed through
:mod:`repro.obs.replay`) or ``seed:N`` (rerun standalone through the
fuzz runner with all oracles armed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from ..fuzz.__main__ import derive_seed
from .driver import (DEFAULT_CELL_SIZE, DEFAULT_PING_EVERY,
                     DEFAULT_PUMP_BUDGET, FleetDriver)
from .harness import SessionSpec, make_slow_spec


def build_specs(sessions: int, seed: int, journals: List[str],
                slow_journal: Optional[str] = None,
                steps: int = 40) -> List[SessionSpec]:
    """Journal specs first, fuzz fill to ``sessions``, slow outlier
    last (deterministic for a given argument set)."""
    specs = [SessionSpec.from_journal(path) for path in journals]
    index = 0
    target = sessions - (1 if slow_journal else 0)
    while len(specs) < target:
        specs.append(SessionSpec.from_seed(derive_seed(seed, index),
                                           length=steps))
        index += 1
    if slow_journal:
        specs.append(make_slow_spec(slow_journal))
    return specs


def corpus_journals(directory: str) -> List[str]:
    return sorted(
        os.path.join(directory, name)
        for name in os.listdir(directory) if name.endswith(".journal"))


def repro(source: str) -> int:
    """Reproduce one session from its report handle."""
    if source.startswith("seed:"):
        from ..fuzz.gen import generate_scenario
        from ..fuzz.runner import run_scenario
        result = run_scenario(generate_scenario(int(source[5:])))
        print(result.report())
        return 0 if result.ok else 1
    from ..obs.journal import Journal
    from ..obs.replay import replay_journal
    result = replay_journal(Journal.load(source))
    print(result.report())
    return 0 if result.matched else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description="journal-driven fleet load generator")
    parser.add_argument("--sessions", type=int, default=50,
                        help="total sessions to run (default 50)")
    parser.add_argument("--seed", type=int, default=0,
                        help="master seed for generated scenarios")
    parser.add_argument("--steps", type=int, default=40,
                        help="steps per generated scenario")
    parser.add_argument("--cell-size", type=int,
                        default=DEFAULT_CELL_SIZE,
                        help="sessions per shared server cell")
    parser.add_argument("--pump-budget", type=int,
                        default=DEFAULT_PUMP_BUDGET,
                        help="events per scheduler visit (0 = drain)")
    parser.add_argument("--ping-every", type=int,
                        default=DEFAULT_PING_EVERY,
                        help="rounds between cross-session sends")
    parser.add_argument("--journal", action="append", default=[],
                        metavar="FILE",
                        help="include a recorded journal as a session")
    parser.add_argument("--corpus", metavar="DIR",
                        help="include every .journal under DIR")
    parser.add_argument("--slow-journal", metavar="FILE",
                        help="add the synthetic slow session; record "
                             "its journal to FILE")
    parser.add_argument("--top", type=int, default=10,
                        help="rows in the top-slowest report")
    parser.add_argument("--out", metavar="FILE",
                        help="write the summary JSON to FILE")
    parser.add_argument("--repro", metavar="SOURCE",
                        help="reproduce one session (journal path or "
                             "seed:N) and exit")
    args = parser.parse_args(argv)

    if args.repro:
        return repro(args.repro)

    journals = list(args.journal)
    if args.corpus:
        journals.extend(corpus_journals(args.corpus))
    try:
        specs = build_specs(args.sessions, args.seed, journals,
                            slow_journal=args.slow_journal,
                            steps=args.steps)
    except ValueError as error:
        sys.stderr.write("fleet: refused spec: %s\n" % error)
        return 2
    driver = FleetDriver(specs, cell_size=args.cell_size,
                         pump_budget=args.pump_budget,
                         ping_every=args.ping_every, seed=args.seed)
    result = driver.run()
    print(result.report(top=args.top))
    if args.out:
        payload = {"summary": result.summary(),
                   "top_slowest": result.top_slowest(args.top),
                   "slos": result.slos()}
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote %s" % args.out)
    return 0 if all(row["ok"] for row in result.slos()) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
