"""Deterministic replay: clean re-runs, ablation modes, divergence."""

import os

import pytest

from repro.obs.journal import Journal
from repro.obs.replay import (MODES, record_session, replay_all_modes,
                              replay_journal)
from repro.obs.session import SessionConfig

SCRIPT = """
button .b -text Hello -command {set ::clicked 1}
entry .e
pack append . .b {top} .e {top}
focus .e
"""

STEPS = [
    ("warp_pointer", 12, 12, 0),
    ("press_button", 1, 0),
    ("release_button", 1, 0),
    ("update",),
    ("press_key", "a", 0, None),
    ("release_key", "a", 0, None),
    ("update",),
]

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      os.pardir, os.pardir, "examples", "golden.journal")


@pytest.fixture(scope="module")
def session():
    return record_session(SCRIPT, STEPS, name="replaytest")


class TestCleanReplay:
    def test_default_mode_zero_divergence(self, session):
        result = replay_journal(session)
        assert result.matched
        assert result.first_divergence is None
        assert result.type_delta == {}
        assert result.recorded_requests == result.replayed_requests

    def test_timer_session_replays_on_same_timeline(self):
        script = SCRIPT + "\nafter 50 {set ::fired 1}\n"
        journal = record_session(
            script, [("update",), ("advance", 60), ("update",)],
            name="timer")
        advances = [args for name, args in journal.inputs()
                    if name == "advance"]
        assert advances and advances[0][0] == 60
        assert replay_journal(journal).matched

    def test_report_text_for_match(self, session):
        text = replay_journal(session).report()
        assert text.startswith("REPLAY mode=default: MATCH")


class TestAblationModes:
    def test_all_modes_have_no_unexpected_delta(self, session):
        results = replay_all_modes(session)
        assert set(results) == set(MODES)
        for mode, result in results.items():
            assert result.matched, "%s: %s" % (mode, result.report())
            assert result.unexpected_delta == {}

    def test_compile_off_wire_is_invariant(self, session):
        # Compiling trades CPU, never traffic: the wire must be
        # identical element for element.
        result = replay_journal(session, mode="compile_off")
        assert result.matched
        assert result.type_delta == {}

    def test_cache_off_delta_is_cache_shaped(self):
        # Enough widgets that the resource cache visibly collapses
        # allocations (the paper's §3.3 claim, as a wire diff): four
        # buttons share one font, so cache-off loads it four times.
        script = "\n".join("button .b%d -text b%d" % (i, i)
                           for i in range(4))
        journal = record_session(script, [("update",)], name="cache")
        result = replay_journal(journal, mode="cache_off")
        assert result.matched
        recorded, replayed = result.expected_delta["load_font"]
        assert recorded == 1 and replayed == 4

    def test_unknown_mode_rejected(self, session):
        with pytest.raises(ValueError, match="unknown replay mode"):
            replay_journal(session, mode="bogus")


class TestDivergence:
    def test_perturbed_widget_option_localized(self, session):
        # Same inputs, same request *types* — only the button label
        # changed.  The argument digest must localize the diff to the
        # button's own draw, not flag the whole stream.
        perturbed = SCRIPT.replace("-text Hello", "-text Howdy")
        result = replay_journal(session, script=perturbed)
        assert not result.matched
        assert result.first_divergence is not None
        # no request-count noise: the perturbation is value-level
        assert result.type_delta == {}
        rows = [row for row in result.context
                if row["index"] == result.first_divergence]
        assert rows
        recorded_op, replayed_op = rows[0]["recorded"], \
            rows[0]["replayed"]
        assert recorded_op[0] == replayed_op[0] == "draw_string"
        assert "Hello" in recorded_op[2]
        assert "Howdy" in replayed_op[2]

    def test_divergence_report_names_the_delta(self, session):
        perturbed = SCRIPT.replace("-text Hello", "-text Howdy")
        text = replay_journal(session, script=perturbed).report()
        assert "DIVERGED" in text
        assert "first divergence at wire index" in text
        assert "Hello" in text and "Howdy" in text

    def test_truncated_journal_never_matches(self, session):
        journal = Journal.loads(session.to_jsonl())
        journal.dropped = 7
        result = replay_journal(journal)
        assert not result.matched
        assert result.truncated
        assert "ring wrapped" in result.report()


class TestGoldenSession:
    def test_golden_journal_is_checked_in(self):
        assert os.path.exists(GOLDEN), \
            "run PYTHONPATH=src python examples/record_golden.py"

    def test_golden_replays_clean_in_default_mode(self):
        result = replay_journal(Journal.load(GOLDEN))
        assert result.matched, result.report()
        assert result.type_delta == {}

    def test_golden_replays_in_every_ablation_mode(self):
        journal = Journal.load(GOLDEN)
        for mode, result in replay_all_modes(journal).items():
            assert result.matched, "%s: %s" % (mode, result.report())

    def test_golden_covers_every_input_kind(self):
        names = {name for name, _ in Journal.load(GOLDEN).inputs()}
        assert {"warp_pointer", "press_button", "release_button",
                "press_key", "release_key", "update", "advance",
                "eval"} <= names


class TestCli:
    def test_cli_match_exits_zero(self, tmp_path, session, capsys):
        from repro.obs.replay import main
        path = tmp_path / "s.journal"
        session.save(str(path))
        assert main([str(path), "--all-modes"]) == 0
        out = capsys.readouterr().out
        assert out.count("MATCH") == len(MODES)

    def test_cli_divergence_exits_one(self, tmp_path, session):
        from repro.obs.replay import main
        perturbed = Journal.loads(session.to_jsonl())
        perturbed.meta = dict(perturbed.meta)
        perturbed.meta["script"] = SCRIPT.replace(
            "button .b -text Hello",
            "button .b -text Hello -background red")
        path = tmp_path / "bad.journal"
        perturbed.save(str(path))
        assert main([str(path)]) == 1

    @pytest.mark.parametrize("flags, key", [
        ({"vm_enabled": False}, "vm_enabled"),
        ({"cache_enabled": "no"}, "cache_enabled"),
    ])
    def test_cli_malformed_header_flags_exit_two(self, tmp_path, session,
                                                 capsys, flags, key):
        from repro.obs.replay import main
        journal = Journal.loads(session.to_jsonl())
        journal.meta = dict(journal.meta,
                            flags=dict(journal.meta["flags"], **flags))
        path = tmp_path / "bad-flags.journal"
        journal.save(str(path))
        assert main([str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert key in err


class TestRecordErrors:
    """Recording has no error sink: failures surface to the caller."""

    def test_broken_setup_script_raises(self):
        from repro.tcl.errors import TclError
        with pytest.raises(TclError, match="nosuchcmd"):
            record_session("nosuchcmd", [], name="broken")

    def test_raising_step_eval_raises(self):
        from repro.tcl.errors import TclError
        with pytest.raises(TclError, match="nosuchcmd"):
            record_session(SCRIPT, [("eval", "nosuchcmd")], name="step")


class TestSessionConfig:
    def test_header_flags_round_trip(self, session):
        config = SessionConfig.from_header(session.meta)
        assert config == SessionConfig()
        assert config.to_flags() == session.meta["flags"]
        assert list(config.to_flags()) == [
            "cache_enabled", "compile_enabled", "buffering_enabled",
            "bytecode_enabled"]

    def test_absent_keys_stay_on(self):
        assert SessionConfig.from_flags({"cache_enabled": False}) == \
            SessionConfig(cache_enabled=False)
        assert SessionConfig.from_header({}) == SessionConfig()

    @pytest.mark.parametrize("flags, key", [
        ({"vm_enabled": False}, "vm_enabled"),
        ({"compile_enabled": "no"}, "compile_enabled"),
    ])
    def test_replay_refuses_malformed_header(self, session, flags, key):
        journal = Journal.loads(session.to_jsonl())
        journal.meta = dict(journal.meta, flags=flags)
        with pytest.raises(ValueError, match=key):
            replay_journal(journal)

    def test_mode_overrides_header_config(self, session):
        seen = []

        def setup(replay_session):
            seen.append(replay_session.spec.config)
            return replay_session.new_app("replaytest", SCRIPT)

        assert replay_journal(session, mode="bytecode_off",
                              setup=setup).matched
        assert seen == [SessionConfig(bytecode_enabled=False)]


class TestFaultedReplay:
    """Sessions recorded under a fault plan replay their faults."""

    def _faulted_session(self):
        from repro.x11.faults import FaultPlan
        plan = FaultPlan(seed=5, error_rate=0.05, warmup=60,
                         max_faults=3)
        return record_session(SCRIPT, STEPS, name="faulted",
                              fault_plan=plan)

    def test_fault_plan_rides_in_header(self):
        session = self._faulted_session()
        spec = session.meta["fault_plan"]
        assert spec["seed"] == 5
        assert spec["error_rate"] == 0.05
        assert spec["warmup"] == 60

    def test_faulted_session_replays_byte_identically(self):
        session = self._faulted_session()
        result = replay_journal(session, mode="default")
        assert result.matched, result.report()
        assert session.to_jsonl() == result.replay_log.to_jsonl()

    def test_faulted_journal_round_trips_through_disk(self, tmp_path):
        session = self._faulted_session()
        path = tmp_path / "faulted.journal"
        session.save(str(path))
        reloaded = Journal.load(str(path))
        assert replay_journal(reloaded, mode="default").matched

    def test_callers_plan_is_a_description(self):
        # The session installs a plan rebuilt from the caller's spec;
        # the faults it injects are journal entries, not counts on the
        # caller's object.
        from repro.x11.faults import FaultPlan
        plan = FaultPlan(seed=5, error_rate=1.0, warmup=40, max_faults=1)
        journal = record_session(SCRIPT, STEPS, name="faulted",
                                 fault_plan=plan)
        assert plan.total_injected == 0 and plan.log == []
        assert [entry["k"] for entry in journal.ring].count("fault") == 1

    def test_call_trigger_plan_is_refused(self):
        from repro.x11.faults import FaultPlan
        plan = FaultPlan(seed=0)
        plan.call_on_request(lambda server: None, name="MapWindow")
        with pytest.raises(ValueError, match="call_on_request"):
            record_session(SCRIPT, STEPS, name="called", fault_plan=plan)

    def test_construction_killed_by_fault_still_replays(self):
        # A plan with no warmup can kill TkApp construction itself;
        # the recording survives that, and so must the replay.
        from repro.x11.faults import FaultPlan
        plan = FaultPlan(seed=0, error_rate=1.0, max_faults=1)
        session = record_session(SCRIPT, [("update",)],
                                 name="stillborn", fault_plan=plan)
        result = replay_journal(session, mode="default")
        assert result.matched, result.report()
        assert any(stage == "new_app" for stage, _ in result.swallowed)
