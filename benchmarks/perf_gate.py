"""Head-vs-base benchmark gate: alternating perfbench runs of two
checkouts, compared with the bounds of ``BENCHMARK.json``.

Usage, from the root of the head checkout::

    python3 benchmarks/perf_gate.py BASE_DIR [--seconds 20]

``BASE_DIR`` is a checkout of the commit to compare against (CI puts a
``git worktree`` at the merge base there).  For every workload that
the ``BENCHMARK.json`` of both checkouts lists, the script runs
``perfbench/run.py --trace 0`` of the base and of this checkout,
``PAIRS`` times each, alternating which side runs first so a drift of
the host's speed lands on both sides.  It prints every run's
end-to-end metrics, then exits 1 if, on any workload, a bounded metric
that both sides report regresses by the rule of
``perfbench.compare.regressions`` (head median worse than base median
by more than the bound of this checkout's ``BENCHMARK.json``) or the
head fails a larger share of its ops than the base.  Workloads and
bounded metrics only one side has are new (or gone): they are printed
as skipped, not gated.  ``--plant NAME`` passes ``--plant NAME`` to
the head's runs only; it exists to show that the gate trips
(``--plant frame_size`` must flag ``button_churn``).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HEAD = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(HEAD, "perfbench"))

import compare  # noqa: E402

#: alternating base/head pairs of runs per workload
PAIRS = 5


def workloads(checkout: str) -> list:
    """The workload names a checkout's ``BENCHMARK.json`` lists."""
    path = os.path.join(checkout, "BENCHMARK.json")
    if not os.path.exists(path):
        return []
    with open(path) as source:
        return [entry["name"] for entry in json.load(source)["workloads"]]


def run(checkout: str, workload: str, seconds: float, extra) -> dict:
    """One untraced perfbench run; its result object (the last line)."""
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seconds", str(seconds),
         "--trace", "0"] + extra,
        cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit("perf_gate: %s run of %s exited %d:\n%s"
                         % (workload, checkout, done.returncode,
                            done.stderr))
    return json.loads(done.stdout.strip().splitlines()[-1])


def failed_share(runs) -> float:
    attempted = sum(result["attempted"] for result in runs)
    return sum(result["failed"] for result in runs) / max(attempted, 1)


def regressions(base_runs, head_runs):
    """``(flagged, skipped)``: ``flagged`` as
    ``compare.regressions`` computes it, over the bounded metrics every
    run of both sides reports; ``skipped`` names the other bounded
    metrics."""
    reported = set.intersection(*(set(result["metrics"])
                                  for result in base_runs + head_runs))
    flagged, skipped = [], []
    for name, (better, bound) in sorted(compare.load_bounds().items()):
        if name not in reported:
            skipped.append(name)
            continue
        base = statistics.median(result["metrics"][name]["value"]
                                 for result in base_runs)
        head = statistics.median(result["metrics"][name]["value"]
                                 for result in head_runs)
        worse = compare.worsening(better, base, head)
        if worse > bound:
            flagged.append((name, base, head, worse))
    return flagged, skipped


def describe(side: str, pair: int, result: dict) -> str:
    metrics = " ".join("%s=%.4g" % (name, value["value"])
                       for name, value in sorted(result["metrics"].items()))
    return "  pair %d %-4s failed %d/%d  %s" % (
        pair, side, result["failed"], result["attempted"], metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", help="checkout of the base commit")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--plant")
    args = parser.parse_args(argv)
    with open(compare.BENCHMARK) as source:
        seconds = args.seconds or json.load(source)["run_seconds"]
    plant = ["--plant", args.plant] if args.plant else []
    base_workloads = workloads(args.base)
    status = 0
    for workload in workloads(HEAD):
        if workload not in base_workloads:
            print("skipped %s: new, the base does not list it" % workload)
            continue
        print("%s: %d alternating pairs of %g s runs"
              % (workload, PAIRS, seconds), flush=True)
        runs = {"base": [], "head": []}
        for pair in range(PAIRS):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in order:
                result = (run(args.base, workload, seconds, [])
                          if side == "base"
                          else run(HEAD, workload, seconds, plant))
                runs[side].append(result)
                print(describe(side, pair, result), flush=True)
        flagged, skipped = regressions(runs["base"], runs["head"])
        for name in skipped:
            print("skipped %s %s: not reported by both sides"
                  % (workload, name))
        for name, base, head, worse in flagged:
            print("REGRESSION %s %s: base median %.4g, head median %.4g "
                  "(%.1f%% worse)" % (workload, name, base, head,
                                      100 * worse))
        base_failed, head_failed = (failed_share(runs["base"]),
                                    failed_share(runs["head"]))
        if head_failed > base_failed:
            print("REGRESSION %s failed ops: base %.4f, head %.4f"
                  % (workload, base_failed, head_failed))
        if flagged or head_failed > base_failed:
            status = 1
        else:
            print("ok %s: no end-to-end metric past its bound" % workload)
    return status


if __name__ == "__main__":
    sys.exit(main())
