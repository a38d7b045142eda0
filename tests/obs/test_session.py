"""Tests for the one session description and the one launch path.

A :class:`~repro.obs.session.SessionSpec` is a journal header plus the
journal's inputs; every driver launches one through
:meth:`~repro.obs.session.Session.launch`, so each writes exactly the
header its spec describes.
"""

import glob
import os
from dataclasses import replace

import pytest

from repro.fleet import FleetSession
from repro.fuzz import generate_scenario, run_scenario
from repro.obs.journal import Journal
from repro.obs.replay import MODES, record_session, replay_journal
from repro.obs.session import SessionConfig, SessionSpec
from repro.wish.shell import main as wish_main
from repro.x11 import XServer
from repro.x11.faults import FaultPlan

ROOT = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
GOLDEN = os.path.join(ROOT, "examples", "golden.journal")
CHECKED_IN = [GOLDEN] + sorted(
    glob.glob(os.path.join(ROOT, "tests", "regress", "*.journal")))

SCRIPT = "button .b -text hi\npack append . .b {top}\n"

#: a generated scenario with a fault plan and an ablation flag
FAULTED_SEED = 6


class TestFromJournal:
    @pytest.mark.parametrize("path", CHECKED_IN, ids=os.path.basename)
    def test_header_and_inputs_round_trip(self, path):
        spec = SessionSpec.from_journal(path)
        assert spec.source == path
        assert list(spec.steps) == Journal.load(path).inputs()
        rewritten = Journal()
        rewritten.set_header(spec)
        with open(path) as handle:
            assert rewritten.to_jsonl() == handle.readline()

    def test_checked_in_corpus_covers_every_header_field(self):
        specs = [SessionSpec.from_journal(path) for path in CHECKED_IN]
        assert any(spec.fault_spec for spec in specs)
        assert any(spec.planted for spec in specs)
        assert any(spec.config != SessionConfig() for spec in specs)


class TestDriversWriteTheirSpecsHeader:
    def test_record_session(self):
        plan = FaultPlan(seed=5, error_rate=0.05, warmup=60,
                         max_faults=3)
        config = SessionConfig(cache_enabled=False)
        journal = record_session(SCRIPT, [("update",)], name="rec",
                                 config=config, fault_plan=plan,
                                 planted="registry_leak")
        spec = SessionSpec([("update", ["rec"])], setup_script=SCRIPT,
                           config=config, fault_spec=plan.to_spec(),
                           planted="registry_leak", name="rec")
        assert journal.meta == spec.header()
        assert SessionSpec.from_journal(journal) == spec

    def test_run_scenario(self):
        spec = generate_scenario(FAULTED_SEED, length=10,
                                 planted="selection_leak")
        assert spec.fault_spec and spec.config != SessionConfig()
        result = run_scenario(spec, check_replay=False)
        assert result.journal.meta == spec.header()

    def test_recording_fleet_session(self, tmp_path):
        path = str(tmp_path / "fleet.journal")
        spec = replace(generate_scenario(FAULTED_SEED, length=10),
                       record_path=path)
        session = FleetSession("s000", spec, XServer())
        session.launch()
        while session.step():
            pass
        session.finish()
        assert Journal.load(path).meta == spec.header()

    def test_wish_journal(self, tmp_path):
        script = tmp_path / "app.tcl"
        script.write_text(SCRIPT)
        out = str(tmp_path / "wish.journal")
        assert wish_main(["--journal", out, "-name", "shell",
                          "--no-bytecode", "-f", str(script)]) == 0
        spec = SessionSpec(setup_script=SCRIPT, name="shell",
                           config=SessionConfig(bytecode_enabled=False))
        assert Journal.load(out).meta == spec.header()

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_replay_journal(self, mode):
        journal = Journal.load(GOLDEN)
        recorded = SessionSpec.from_journal(journal)
        result = replay_journal(journal, mode=mode)
        spec = replace(recorded, config=replace(recorded.config,
                                                **MODES[mode]["flags"]))
        assert result.replay_log.meta == spec.header()
        if mode == "default":
            assert result.replay_log.meta == journal.meta
