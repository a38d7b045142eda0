"""Delta-debugging step minimization for failing scenarios.

Given a scenario whose run violated an invariant, the shrinker finds a
(locally) minimal step list that still reproduces a violation of the
same kind, by re-running candidate scenarios from scratch — the
simulator is fast enough that re-execution *is* the validation, no
approximation needed.  The algorithm is Zeller's ddmin over the step
list (complement-removal with increasing granularity), preceded by a
truncation to the violating step and followed by a one-at-a-time
elimination pass that ddmin's chunking can miss.

Removing steps is always safe: steps are independent journal inputs,
and the executor tolerates references to things an earlier (now
removed) step would have created — a stale widget path is a TclError
routed to ``bgerror``, an eval for a never-created app falls back to
the main one.  Each candidate is the original
:class:`~repro.obs.session.SessionSpec` with only its steps replaced,
so the setup script, config, fault spec and plant stay fixed while the
*steps* shrink.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, List, Set, Tuple

from ..obs.session import SessionSpec
from .runner import FuzzResult

#: Default cap on candidate re-runs per shrink.
DEFAULT_BUDGET = 400


def shrink_scenario(scenario: SessionSpec, kinds: Set[str],
                    run: Callable[[SessionSpec], FuzzResult],
                    first_step=None,
                    budget: int = DEFAULT_BUDGET
                    ) -> Tuple[SessionSpec, int]:
    """Minimize ``scenario.steps`` while ``run`` still violates.

    ``kinds`` is the set of violation kinds that count as "still
    failing" (shrinking must not wander onto a different bug);
    ``run`` executes a candidate and returns its :class:`FuzzResult`
    (the caller arms any plant inside it); ``first_step`` — the index
    of the earliest violating step, when known — truncates the tail
    before ddmin starts.  Returns the minimal scenario and the number
    of candidate runs spent.
    """
    runs = [0]

    def fails(steps: List[tuple]) -> bool:
        if runs[0] >= budget:
            return False
        runs[0] += 1
        result = run(replace(scenario, steps=steps))
        return bool(kinds & result.kinds())

    steps = list(scenario.steps)
    if first_step is not None and first_step + 1 < len(steps):
        truncated = steps[:first_step + 1]
        if fails(truncated):
            steps = truncated

    # ddmin: remove progressively smaller chunks.
    granularity = 2
    while len(steps) >= 2:
        chunk = max(1, len(steps) // granularity)
        reduced = False
        start = 0
        while start < len(steps):
            candidate = steps[:start] + steps[start + chunk:]
            if candidate and fails(candidate):
                steps = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
            else:
                start += chunk
        if not reduced:
            if granularity >= len(steps):
                break
            granularity = min(len(steps), granularity * 2)

    # One-at-a-time sweep (back to front, so indices stay valid).
    for index in range(len(steps) - 1, -1, -1):
        if len(steps) == 1:
            break
        candidate = steps[:index] + steps[index + 1:]
        if fails(candidate):
            steps = candidate

    return replace(scenario, steps=steps), runs[0]


__all__ = ["shrink_scenario", "DEFAULT_BUDGET"]
