"""The wish --trace / --metrics-out observability flags."""

import json

import pytest

from repro.wish.shell import main

SCRIPT = 'button .b -text hi\npack append . .b {top}\nupdate\ndestroy .\n'


def _write_script(tmp_path):
    script = tmp_path / "app.tcl"
    script.write_text(SCRIPT)
    return str(script)


class TestMetricsOut:
    def test_writes_obs_dump_json(self, tmp_path):
        out = tmp_path / "obs.json"
        status = main(["--metrics-out", str(out), "-f",
                       _write_script(tmp_path)])
        assert status == 0
        data = json.loads(out.read_text())
        assert set(data) - {"journal"} == {"metrics", "trace",
                                           "profile"}
        assert data["metrics"]["x11.requests{type=create_window}"] >= 2
        # --metrics-out alone still records spans for the profile
        assert data["trace"]["spans"]

    def test_flag_order_independent(self, tmp_path):
        out = tmp_path / "obs.json"
        status = main(["-f", _write_script(tmp_path),
                       "--metrics-out", str(out)])
        assert status == 0
        assert out.exists()


class TestTraceFlag:
    def test_prints_span_tree_to_stderr(self, tmp_path, capsys):
        status = main(["--trace", "-f", _write_script(tmp_path)])
        assert status == 0
        err = capsys.readouterr().err
        assert err.startswith("TRACE:")
        assert "cmd button" in err

    def test_trace_with_journal_logs_requests(self, tmp_path, capsys):
        out = tmp_path / "session.journal"
        status = main(["--trace", "--journal", str(out), "-f",
                       _write_script(tmp_path)])
        assert status == 0
        assert capsys.readouterr().err.startswith("TRACE:")
        entries = [json.loads(line)
                   for line in out.read_text().splitlines()[1:]]
        assert any(entry["k"] == "req" and entry["name"] == "create_window"
                   for entry in entries)


class TestNoFlags:
    def test_plain_run_unchanged(self, tmp_path, capsys):
        status = main(["-f", _write_script(tmp_path)])
        assert status == 0
        assert "TRACE" not in capsys.readouterr().err


class TestJournalFlag:
    def test_records_session_to_file(self, tmp_path):
        out = tmp_path / "session.journal"
        status = main(["--journal", str(out), "-f",
                       _write_script(tmp_path)])
        assert status == 0
        lines = out.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["k"] == "header"
        assert "button .b" in header["script"]
        kinds = {json.loads(line)["k"] for line in lines[1:]}
        assert {"req", "batch"} <= kinds

    def test_replay_of_recorded_session_matches(self, tmp_path, capsys):
        out = tmp_path / "session.journal"
        assert main(["--journal", str(out), "-f",
                     _write_script(tmp_path)]) == 0
        status = main(["--replay", str(out)])
        assert status == 0
        assert "REPLAY mode=default: MATCH" in capsys.readouterr().err

    def test_replay_all_ablation_modes(self, tmp_path, capsys):
        out = tmp_path / "session.journal"
        assert main(["--journal", str(out), "-f",
                     _write_script(tmp_path)]) == 0
        status = main(["--replay", str(out),
                       "--replay-mode", "cache_off",
                       "--replay-mode", "compile_off",
                       "--replay-mode", "buffering_off"])
        assert status == 0
        assert capsys.readouterr().err.count("MATCH") == 3

    def test_replay_divergence_exits_one(self, tmp_path, capsys):
        out = tmp_path / "session.journal"
        assert main(["--journal", str(out), "-f",
                     _write_script(tmp_path)]) == 0
        # tamper with the recorded setup: the replay must notice
        tampered = out.read_text().replace("-text hi", "-text bye")
        out.write_text(tampered)
        status = main(["--replay", str(out)])
        assert status == 1
        assert "DIVERGED" in capsys.readouterr().err

    def test_unknown_replay_mode_exits_two(self, tmp_path, capsys):
        out = tmp_path / "session.journal"
        assert main(["--journal", str(out), "-f",
                     _write_script(tmp_path)]) == 0
        status = main(["--replay", str(out),
                       "--replay-mode", "bogus"])
        assert status == 2
        assert "unknown replay mode" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, key", [
        ({"vm_enabled": False}, "vm_enabled"),
        ({"cache_enabled": "no"}, "cache_enabled"),
    ])
    def test_malformed_header_flags_exit_two(self, tmp_path, capsys,
                                             flags, key):
        out = tmp_path / "session.journal"
        assert main(["--journal", str(out), "-f",
                     _write_script(tmp_path)]) == 0
        lines = out.read_text().splitlines()
        header = json.loads(lines[0])
        header["flags"].update(flags)
        out.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        capsys.readouterr()
        assert main(["--replay", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert key in err
