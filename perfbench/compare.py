"""The regression gate: two sets of runs against the bounds of
``BENCHMARK.json``.

Each set holds the result objects (the last line ``run.py`` prints) of
several runs of one workload on one version of the program.  A metric
regresses when the median of the new set is worse than the median of
the base set by more than the metric's ``bound`` (a share of the base
median).
"""

import json
import os
import statistics

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def load_bounds() -> dict:
    """``{metric: (better, bound)}`` for the end-to-end metrics."""
    with open(BENCHMARK) as source:
        spec = json.load(source)
    return {entry["name"]: (entry["better"], entry["bound"])
            for entry in spec["end_to_end"]}


def worsening(better: str, base: float, new: float) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    change = (new - base) / base
    return change if better == "lower" else -change


def regressions(base_runs, new_runs):
    """``[(metric, base median, new median, worsening)]`` for every
    metric whose worsening exceeds its bound."""
    flagged = []
    for name, (better, bound) in sorted(load_bounds().items()):
        base = statistics.median(run["metrics"][name]["value"]
                                 for run in base_runs)
        new = statistics.median(run["metrics"][name]["value"]
                                for run in new_runs)
        worse = worsening(better, base, new)
        if worse > bound:
            flagged.append((name, base, new, worse))
    return flagged
