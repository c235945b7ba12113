"""Detector selection through every configuration surface.

The strategy is a deployment knob, so it must be reachable the same
three ways every other knob is: the ``*SYSTEM`` config file, the
``repro.cli daemon`` flags, and the live ``control()`` call of the
service API — all derived from ``repro.core.config.KNOBS`` — and a
non-default choice must survive a render/parse round trip.
"""

from __future__ import annotations

import pytest

from repro.analysis.models import MODELS
from repro.core import HierarchicalConfig, parse_config_text, render_config_text
from repro.core.config import KNOBS
from repro.detect import DETECTORS
from repro.detect.bounds import LN10


DETECTOR_BLOCK = """
*SYSTEM
DETECTOR = swim
PROBE_PERIOD = 0.5
PROBE_TIMEOUT = 0.25
INDIRECT_PROBES = 2
SUSPICION_TIMEOUT = 1.5
PHI_THRESHOLD = 6.0
PHI_WINDOW = 16
"""


class TestConfigFile:
    def test_detector_keys_parse(self):
        cfg, _ = parse_config_text(DETECTOR_BLOCK)
        assert cfg.detector == "swim"
        assert cfg.probe_period == 0.5
        assert cfg.probe_timeout == 0.25
        assert cfg.indirect_probes == 2
        assert cfg.suspicion_timeout == 1.5
        assert cfg.phi_threshold == 6.0
        assert cfg.phi_window == 16

    def test_detector_name_is_normalised(self):
        cfg, _ = parse_config_text("*SYSTEM\nDETECTOR = Phi-Accrual\n")
        assert cfg.detector == "phi-accrual"

    def test_unknown_detector_rejected(self):
        with pytest.raises(ValueError, match="DETECTOR"):
            parse_config_text("*SYSTEM\nDETECTOR = psychic\n")

    def test_non_default_detector_round_trips(self):
        cfg, services = parse_config_text(DETECTOR_BLOCK)
        cfg2, _ = parse_config_text(render_config_text(cfg, services))
        assert cfg2 == cfg

    def test_default_render_emits_no_detector_lines(self):
        text = render_config_text(HierarchicalConfig(), [])
        assert "DETECTOR" not in text
        assert "PHI_" not in text


class TestDaemonFlags:
    def test_daemon_parser_accepts_detector_knobs(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "daemon",
                "--spec",
                "cluster.json",
                "--node",
                "n0",
                "--detector",
                "phi-accrual",
                "--phi-threshold",
                "6",
                "--probe-period",
                "0.5",
            ]
        )
        assert args.detector == "phi-accrual"
        assert args.phi_threshold == 6.0
        assert args.probe_period == 0.5

    def test_daemon_parser_rejects_unknown_detector(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["daemon", "--detector", "psychic"])

    def test_daemon_flags_are_the_tables_flag_rows(self):
        from repro.cli import build_parser

        subparsers = next(
            a for a in build_parser()._actions if isinstance(a.choices, dict)
        )
        actions = {
            a.option_strings[0]: a for a in subparsers.choices["daemon"]._actions
        }
        own = {"-h", "--spec", "--node", "--seed", "--duration"}
        assert [f for f in actions if f not in own] == [
            k.flag_name for k in KNOBS if k.flag
        ]
        assert list(actions["--detector"].choices) == sorted(DETECTORS)
        # every derived flag lands on the attribute the collection loop reads
        assert all(actions[k.flag_name].dest == k.attr for k in KNOBS if k.flag)


class TestServiceControl:
    def make_service(self):
        from repro.core import MService
        from repro.net import Network
        from repro.net.builders import build_switched_cluster

        topo, hosts = build_switched_cluster(1, 2)
        net = Network(topo, seed=1)
        ms = MService(net, hosts[0])
        ms.run()
        return net, ms

    def test_control_swaps_detector_live(self):
        net, ms = self.make_service()
        net.run(until=3.0)
        assert ms.node.detector.name == "counter"
        ms.control("detector", "swim")
        assert ms.node.config.detector == "swim"
        assert ms.node.detector.name == "swim"
        assert ms.node.running
        net.run(until=6.0)
        ms.stop()
        assert ms.node.runtime.live_timers == 0

    def test_control_adjusts_detector_knobs(self):
        net, ms = self.make_service()
        ms.control("phi_threshold", 6.0)
        ms.control("suspicion_timeout", 1.0)
        assert ms.node.config.phi_threshold == 6.0
        assert ms.node.config.suspicion_timeout == 1.0

    def test_control_rejects_unknown_detector(self):
        net, ms = self.make_service()
        with pytest.raises(ValueError, match="psychic"):
            ms.control("detector", "psychic")

    def test_control_commands_are_the_tables_control_rows(self):
        from repro.core import MService

        assert MService.CONTROL_COMMANDS == tuple(k.attr for k in KNOBS if k.control)
        # same ten members as before the table existed
        assert sorted(MService.CONTROL_COMMANDS) == sorted(
            [
                "heartbeat_period",
                "max_loss",
                "max_ttl",
                "detector",
                "probe_period",
                "probe_timeout",
                "indirect_probes",
                "suspicion_timeout",
                "phi_threshold",
                "phi_window",
            ]
        )


class TestSurfacesDoc:
    """docs/DETECTORS.md's surfaces table is checked, not typed."""

    def rows(self):
        import re
        from pathlib import Path

        doc = Path(__file__).resolve().parents[2] / "docs" / "DETECTORS.md"
        section = doc.read_text().split("## Configuration surfaces")[1].split("\n## ")[0]
        rows = {}
        for line in section.splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if line.startswith("|") and len(cells) == 2:
                rows[cells[0]] = re.findall(r"`([^`]+)`", cells[1])
        return rows

    def test_doc_lists_exactly_the_tables_spellings(self):
        rows = self.rows()
        assert set(rows) >= {"config file", "daemon CLI", "service API"}
        assert len(rows) == 3 + 2  # plus the header and its |---| rule
        keys = [t for t in rows["config file"] if t.isupper() and not t.startswith("*")]
        assert keys == [k.key for k in KNOBS]
        flags = [t for t in rows["daemon CLI"] if t.startswith("--")]
        assert flags == [k.flag_name for k in KNOBS if k.flag]
        commands = [t.strip('"') for t in rows["service API"] if t.startswith('"')]
        assert commands == [k.attr for k in KNOBS if k.control]


class TestAnalysisModels:
    def test_detection_time_follows_the_detector(self):
        counter = MODELS["hierarchical"](HierarchicalConfig())
        phi = MODELS["hierarchical"](HierarchicalConfig(detector="phi-accrual"))
        assert counter.detection_time(100) == 5.0  # k / f, the paper's bound
        assert phi.detection_time(100) == pytest.approx(8.0 * LN10)

    def test_default_params_reproduce_the_paper(self):
        # The satellite bugfix: detection time routes through the bound,
        # and the counter default still gives max_loss * period everywhere.
        for name, model_cls in MODELS.items():
            model = model_cls()
            if name == "gossip":
                assert model.detection_time(64) > 5.0  # O(log n) growth
            else:
                assert model.detection_time(64) == 5.0

    def test_bdt_scales_with_detector_bound(self):
        slow = MODELS["all-to-all"](HierarchicalConfig(detector="phi-accrual"))
        fast = MODELS["all-to-all"](HierarchicalConfig(detector="swim"))
        n = 50
        assert slow.bdt(n) > fast.bdt(n)
        assert slow.aggregate_bandwidth(n) == fast.aggregate_bandwidth(n)
