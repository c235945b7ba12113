"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from tests.metrics.test_figures import COMMITTED


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_detect_defaults(self):
        args = build_parser().parse_args(["detect"])
        assert args.scheme == "hierarchical"
        assert args.networks == 3

    def test_invalid_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["detect", "--scheme", "bogus"])


class TestCommands:
    def test_formation_output(self, capsys):
        assert main(["formation", "--networks", "2", "--hosts", "3"]) == 0
        out = capsys.readouterr().out
        assert "L0:leader" in out
        assert out.count("view=   6") == 6

    def test_detect_output(self, capsys):
        code = main(
            ["detect", "--networks", "1", "--hosts", "5", "--observe", "30"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "detection   : 5." in out
        assert "observers   : 4/4" in out

    def test_detect_kill_leader(self, capsys):
        code = main(
            ["detect", "--networks", "1", "--hosts", "5", "--observe", "40", "--kill-leader"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "(leader)" in out

    def test_detect_kill_leader_needs_a_scheme_with_leaders(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["detect", "--scheme", "gossip", "--networks", "1", "--hosts", "5",
                  "--observe", "30", "--kill-leader"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "the gossip scheme has no leaders" in captured.err
        assert "victim" not in captured.out

    def test_reproduce_writes_the_committed_entry(self, capsys, tmp_path):
        assert main(["reproduce", "fig02", "--out", str(tmp_path / "f.json")]) == 0
        assert "**Fig. 2 validation: simulated vs model packet rate**" in capsys.readouterr().out
        assert json.loads((tmp_path / "f.json").read_text()) == {"fig02": COMMITTED["fig02"]}

    def test_reproduce_rejects_unknown_figure(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "fig99"])
        assert exc.value.code != 0
        assert "unknown figure 'fig99'" in capsys.readouterr().err

    def test_obs_prometheus_output(self, capsys):
        code = main(
            ["obs", "--networks", "1", "--hosts", "4", "--observe", "20"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_heartbeats_tx_total counter" in out
        assert "repro_multicast_fanout_bucket" in out
        assert "repro_sim_now_seconds 20" in out

    def test_obs_json_output(self, capsys):
        code = main(
            ["obs", "--networks", "1", "--hosts", "4", "--observe", "20",
             "--format", "json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        names = {fam["name"] for fam in data}
        assert "repro_heartbeats_tx_total" in names

    def test_obs_trace_out(self, capsys, tmp_path):
        from repro.obs import read_jsonl_trace

        path = tmp_path / "trace.jsonl"
        code = main(
            ["obs", "--networks", "1", "--hosts", "4", "--observe", "20",
             "--trace-out", str(path)]
        )
        assert code == 0
        records = read_jsonl_trace(path)
        assert records
        assert any(r.kind == "member_up" for r in records)
