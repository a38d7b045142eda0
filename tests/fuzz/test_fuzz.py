"""Tests for the adversarial session fuzzer (repro.fuzz).

Covers the generator's determinism, each invariant oracle, the ddmin
shrinker, the journal round trip behind ``--repro``, and the checked-in
regression corpus under ``tests/regress/``.
"""

import glob
import os
from dataclasses import replace

import pytest

from repro.fuzz import (PLANTS, generate_scenario, plant, run_scenario,
                        shrink_scenario)
from repro.fuzz.__main__ import derive_seed, main
from repro.fuzz.gen import SETUP_SCRIPT
from repro.fuzz.oracles import classify_swallowed
from repro.obs.journal import Journal
from repro.obs.session import SessionSpec
from repro.tcl.errors import TclError
from repro.x11.xserver import XProtocolError

REGRESS_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                           "regress")

#: A scenario seed known (and pinned) to trigger selection_leak: it
#: owns a selection and later destroys the owner.
SELECTION_SEED = 11023807


def _scenario(steps, planted=None):
    return SessionSpec(steps, setup_script=SETUP_SCRIPT, planted=planted,
                       name="fuzz")


class TestDeterminism:
    def test_same_seed_same_scenario(self):
        first = generate_scenario(1234)
        second = generate_scenario(1234)
        assert first.steps == second.steps
        assert first.fault_spec == second.fault_spec
        assert first.config == second.config

    def test_different_seeds_differ(self):
        assert generate_scenario(1).steps != generate_scenario(2).steps

    def test_same_seed_same_journal_bytes(self):
        first = run_scenario(generate_scenario(7, length=20))
        second = run_scenario(generate_scenario(7, length=20))
        assert first.journal.to_jsonl() == second.journal.to_jsonl()

    def test_derive_seed_is_stable(self):
        # CI pins campaign seeds; the per-session expansion must never
        # drift or repros stop matching their filenames.
        assert derive_seed(11, 3) == 11023807
        assert len({derive_seed(0, i) for i in range(100)}) == 100


class TestOracles:
    def test_selection_leak_detected_only_with_plant(self):
        steps = [
            ("eval", ["button .w1 -text hi\npack append . .w1 {top}",
                      "fuzz"]),
            ("eval", ["selection handle .w1 {concat data}\n"
                      "selection own .w1", "fuzz"]),
            ("eval", ["destroy .w1", "fuzz"]),
        ]
        with plant("selection_leak"):
            bad = run_scenario(_scenario(steps,
                                         planted="selection_leak"))
        assert bad.kinds() == {"selection-leak"}
        assert run_scenario(_scenario(steps)).ok

    def test_registry_leak_detected_only_with_plant(self):
        steps = [("eval", ["destroy .", "fuzz"])]
        with plant("registry_leak"):
            bad = run_scenario(_scenario(steps,
                                         planted="registry_leak"))
        assert bad.kinds() == {"registry-stale"}
        assert run_scenario(_scenario(steps)).ok

    def test_eval_tclerror_is_legitimate(self):
        violations = classify_swallowed(
            [("eval", TclError("boom"))], step=3, faulted=False)
        assert violations == []

    def test_pump_escape_is_always_a_violation(self):
        violations = classify_swallowed(
            [("pump", XProtocolError("BadWindow"))], step=3,
            faulted=True)
        assert [v.kind for v in violations] == ["escape"]

    def test_injected_fault_at_input_tick_is_excused(self):
        swallowed = [("inject", XProtocolError("BadWindow"))]
        assert classify_swallowed(swallowed, 0, faulted=True) == []
        assert [v.kind for v in
                classify_swallowed(swallowed, 0, faulted=False)] \
            == ["escape"]

    def test_clean_generated_sessions_pass_all_oracles(self):
        for seed in (3, 17, 99):
            result = run_scenario(generate_scenario(seed, length=15))
            assert result.ok, result.report()


class TestShrinker:
    def test_planted_bug_found_and_shrunk_small(self):
        scenario = generate_scenario(SELECTION_SEED,
                                     planted="selection_leak")
        with plant("selection_leak"):
            result = run_scenario(scenario)
        assert "selection-leak" in result.kinds()

        def rerun(candidate):
            with plant("selection_leak"):
                return run_scenario(candidate, check_replay=False)

        minimal, runs = shrink_scenario(
            scenario, result.kinds(), rerun,
            first_step=result.first_step())
        assert len(minimal.steps) <= 15
        assert runs > 0
        with plant("selection_leak"):
            still = run_scenario(minimal)
        assert "selection-leak" in still.kinds()

    def test_shrink_keeps_session_config(self):
        scenario = generate_scenario(SELECTION_SEED,
                                     planted="selection_leak")
        with plant("selection_leak"):
            result = run_scenario(scenario)

        def rerun(candidate):
            with plant("selection_leak"):
                return run_scenario(candidate, check_replay=False)

        minimal, _ = shrink_scenario(scenario, result.kinds(), rerun,
                                     first_step=result.first_step())
        assert minimal.fault_spec == scenario.fault_spec
        assert minimal.config == scenario.config
        assert minimal.planted == scenario.planted


class TestJournalRoundTrip:
    def test_scenario_from_journal_is_inverse(self):
        scenario = generate_scenario(42, length=15)
        result = run_scenario(scenario)
        rebuilt = SessionSpec.from_journal(result.journal)
        assert result.steps_run == len(scenario.steps)
        # every field but the source (seed:42) is in the journal
        assert replace(rebuilt, source=scenario.source) == scenario
        assert rebuilt.planted is None

    def test_rebuilt_scenario_rerecords_identically(self):
        scenario = generate_scenario(42, length=15)
        result = run_scenario(scenario)
        again = run_scenario(SessionSpec.from_journal(result.journal))
        assert again.journal.to_jsonl() == result.journal.to_jsonl()

    def test_planted_name_rides_in_header(self):
        steps = [("eval", ["destroy .", "fuzz"])]
        with plant("registry_leak"):
            result = run_scenario(_scenario(steps,
                                            planted="registry_leak"))
        assert result.journal.meta["planted"] == "registry_leak"
        assert SessionSpec.from_journal(result.journal).planted \
            == "registry_leak"


class TestRegressionCorpus:
    def test_corpus_has_planted_and_unplanted_journals(self):
        paths = glob.glob(os.path.join(REGRESS_DIR, "*.journal"))
        planted = {Journal.load(p).meta.get("planted") for p in paths}
        assert len(paths) >= 3
        assert None in planted          # at least one fixed real bug
        assert planted - {None}         # at least one planted repro

    def test_regress_corpus_passes(self, capsys):
        assert main(["--regress", REGRESS_DIR]) == 0

    def test_repro_expects_violation_from_planted_journal(self, capsys):
        for path in glob.glob(os.path.join(REGRESS_DIR, "*.journal")):
            if Journal.load(path).meta.get("planted"):
                assert main(["--repro", path,
                             "--expect-violation"]) == 0


class TestCLI:
    def test_fuzz_run_is_clean_and_exits_zero(self, capsys):
        assert main(["--seed", "1", "--sessions", "2",
                     "--steps", "10"]) == 0
        out = capsys.readouterr().out
        assert out.count("clean") == 2

    def test_plant_vocabulary_matches_registry(self):
        assert set(PLANTS) == {"selection_leak", "registry_leak"}

    def test_unknown_plant_rejected(self):
        with pytest.raises(ValueError):
            with plant("no_such_plant"):
                pass
