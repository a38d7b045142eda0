"""Self-tests of the benchmark: its gate must be able to fail.

Run from the root of the repository (takes a few minutes)::

    python3 -m pytest perfbench/tests -q

Each test runs ``perfbench/run.py`` in fresh processes with short runs.
The planted slowdowns busy-wait inside one layer (``run.py --plant``);
the comparison of ``perfbench/compare.py`` must flag exactly the
workloads that reach that layer.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.dirname(HERE))

import compare  # noqa: E402

WORKLOADS = ("button_churn", "input_socket", "golden_replay", "tcl_compute")
SECONDS = "3"
#: alternating base/planted runs per workload
PAIRS = 3

with open(os.path.join(ROOT, "BENCHMARK.json")) as _source:
    SPEC = json.load(_source)


def run(workload, seed=1, trace=0, plant=None, cwd=ROOT, seconds=SECONDS):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", seconds,
            "--trace", str(trace)]
    if plant:
        argv += ["--plant", plant]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def result(workload, **kwargs):
    proc = run(workload, **kwargs)
    assert proc.returncode == 0, proc.stderr
    outcome = json.loads(proc.stdout.strip().splitlines()[-1])
    assert outcome["correct"] and outcome["failed"] == 0, proc.stderr
    return outcome


def names(entries):
    return {entry["name"]: entry["unit"] for entry in entries}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_and_metrics_match_spec(workload):
    """Per-op counts repeat exactly between runs of one seed (each run
    also checks its traced phase against its untraced one), and every
    metric BENCHMARK.json names is printed with its unit."""
    first = result(workload, seed=3, trace=1, seconds="2")
    second = result(workload, seed=3, trace=1, seconds="2")
    for name, unit in names(SPEC["per_layer"]).items():
        assert first["metrics"][name]["unit"] == unit
    assert set(first["metrics"]) == set(names(SPEC["per_layer"]))
    counts = [name for name in first["metrics"]
              if name.endswith(("_per_op", "_ratio"))
              and not name.endswith(("self_ms_per_op", "calls_per_op"))]
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    untraced = result(workload, seed=3, seconds="1")
    assert {name: metric["unit"] for name, metric
            in untraced["metrics"].items()} == names(SPEC["end_to_end"])


@pytest.fixture(scope="module")
def planted():
    """``{(workload, plant): [result, ...]}`` from alternating runs."""
    plan = {"button_churn": ("frame_size", "journal_record"),
            "tcl_compute": ("frame_size", "journal_record"),
            "golden_replay": ("journal_record",),
            "input_socket": ("journal_record",)}
    results = {}
    for workload, plants in plan.items():
        for _ in range(PAIRS):
            for plant in (None,) + plants:
                results.setdefault((workload, plant), []).append(
                    result(workload, plant=plant))
    return results


def flagged(planted, workload, plant):
    found = compare.regressions(planted[(workload, None)],
                                planted[(workload, plant)])
    return {name for name, _base, _new, _worse in found}


def test_frame_size_plant_trips_button_churn_only(planted):
    assert "op_ms.p50" in flagged(planted, "button_churn", "frame_size")
    assert not {"op_ms.p50", "ops_per_s"} & flagged(
        planted, "tcl_compute", "frame_size")


def test_journal_plant_trips_golden_replay_only(planted):
    assert "op_ms.p50" in flagged(planted, "golden_replay",
                                  "journal_record")
    for workload in ("button_churn", "input_socket", "tcl_compute"):
        assert not {"op_ms.p50", "ops_per_s"} & flagged(
            planted, workload, "journal_record"), workload


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("button_churn", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
