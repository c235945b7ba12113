"""Unit tests for HierarchicalConfig and the Fig. 7 config-file format."""

import pytest

from repro.core import HierarchicalConfig, parse_config_text, render_config_text


class TestHierarchicalConfig:
    def test_defaults_match_paper(self):
        cfg = HierarchicalConfig()
        assert cfg.heartbeat_period == 1.0
        assert cfg.max_loss == 5
        assert cfg.member_size == 228
        assert cfg.max_ttl == 4
        assert cfg.piggyback_depth == 3

    def test_channel_names_derived_from_base(self):
        cfg = HierarchicalConfig(base_channel="239.255.0.2:10050")
        assert cfg.channel(0) == "239.255.0.2:10050/L0"
        assert cfg.channel(3) == "239.255.0.2:10050/L3"

    def test_channel_level_out_of_range(self):
        cfg = HierarchicalConfig(max_ttl=4)
        with pytest.raises(ValueError):
            cfg.channel(4)
        with pytest.raises(ValueError):
            cfg.channel(-1)

    def test_ttl_for_level(self):
        cfg = HierarchicalConfig()
        assert cfg.ttl_for_level(0) == 1
        assert cfg.ttl_for_level(2) == 3

    def test_max_level(self):
        assert HierarchicalConfig(max_ttl=4).max_level == 3

    def test_fail_timeout(self):
        cfg = HierarchicalConfig(heartbeat_period=1.0, max_loss=5)
        assert cfg.fail_timeout == 5.0

    def test_level_timeout_grows_with_level(self):
        cfg = HierarchicalConfig()
        assert cfg.level_timeout(0) == 5.0
        assert cfg.level_timeout(1) == 7.5
        assert cfg.level_timeout(2) == 10.0

    def test_relayed_timeout(self):
        cfg = HierarchicalConfig()
        assert cfg.relayed_timeout == 20.0

    def test_message_size(self):
        cfg = HierarchicalConfig(member_size=228)
        assert cfg.message_size(1) == 256
        assert cfg.message_size(10) == 2308


FIG7 = """
*SYSTEM
SHM_KEY = 999
MAX_TTL = 4
MCAST_ADDR = 239.255.0.2
MCAST_PORT = 10050
MCAST_FREQ = 1
MAX_LOSS = 5

*SERVICE
[HTTP]
    PARTITION = 0
    Port = 8080
[Cache]
    PARTITION = 2
"""


class TestConfigParsing:
    def test_fig7_example(self):
        cfg, services = parse_config_text(FIG7)
        assert cfg.shm_key == 999
        assert cfg.max_ttl == 4
        assert cfg.base_channel == "239.255.0.2:10050"
        assert cfg.heartbeat_period == 1.0
        assert cfg.max_loss == 5
        assert len(services) == 2
        http = services[0]
        assert http.name == "HTTP"
        assert http.partitions == frozenset({0})
        assert http.params == {"Port": "8080"}
        assert services[1].name == "Cache"
        assert services[1].partitions == frozenset({2})

    def test_freq_is_inverse_period(self):
        cfg, _ = parse_config_text("*SYSTEM\nMCAST_FREQ = 2\n")
        assert cfg.heartbeat_period == 0.5

    def test_partition_ranges_in_service(self):
        _, services = parse_config_text("*SERVICE\n[Retriever]\nPARTITION = 1-3\n")
        assert services[0].partitions == frozenset({1, 2, 3})

    def test_comments_and_blanks_ignored(self):
        cfg, _ = parse_config_text("# header\n*SYSTEM\nMAX_LOSS = 3  # three\n\n")
        assert cfg.max_loss == 3

    def test_unknown_system_key_rejected(self):
        with pytest.raises(ValueError):
            parse_config_text("*SYSTEM\nBOGUS = 1\n")

    def test_param_outside_service_block_rejected(self):
        with pytest.raises(ValueError):
            parse_config_text("*SERVICE\nPARTITION = 0\n")

    def test_line_before_section_rejected(self):
        with pytest.raises(ValueError):
            parse_config_text("MAX_LOSS = 5\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            parse_config_text("*SYSTEM\nnot a key value\n")

    def test_defaults_without_any_keys(self):
        cfg, services = parse_config_text("*SYSTEM\n")
        assert cfg == HierarchicalConfig()
        assert services == []

    def test_channel_overrides_from_file(self):
        cfg, _ = parse_config_text(
            "*SYSTEM\nCHANNEL_L0 = 239.1.1.1:9000\nCHANNEL_L2 = 239.1.1.2:9000\n"
        )
        assert cfg.channel(0) == "239.1.1.1:9000"
        assert cfg.channel(1) == f"{cfg.base_channel}/L1"  # derived
        assert cfg.channel(2) == "239.1.1.2:9000"

    def test_malformed_channel_override_rejected(self):
        with pytest.raises(ValueError):
            parse_config_text("*SYSTEM\nCHANNEL_LX = foo\n")

    def test_with_channel_override_builder(self):
        cfg = HierarchicalConfig().with_channel_override(1, "custom")
        assert cfg.channel(1) == "custom"
        cfg2 = cfg.with_channel_override(1, "custom2")
        assert cfg2.channel(1) == "custom2"
        assert len(cfg2.channel_overrides) == 1

    def test_overridden_channels_work_in_protocol(self):
        from repro.core import HierarchicalNode
        from repro.net import Network
        from repro.net.builders import build_switched_cluster
        from repro.protocols import deploy

        cfg = HierarchicalConfig().with_channel_override(0, "admin-l0")
        topo, hosts = build_switched_cluster(2, 4)
        net = Network(topo, seed=1)
        nodes = deploy(HierarchicalNode, net, hosts, config=cfg)
        net.run(until=12.0)
        assert all(len(n.view()) == 8 for n in nodes.values())
        assert net.multicast_fabric.subscribers("admin-l0") == sorted(hosts)

    def test_roundtrip(self):
        cfg, services = parse_config_text(FIG7)
        text = render_config_text(cfg, services)
        cfg2, services2 = parse_config_text(text)
        assert cfg2 == cfg
        assert [s.name for s in services2] == [s.name for s in services]
        assert [s.partitions for s in services2] == [s.partitions for s in services]

    def test_roundtrip_with_channel_overrides(self):
        cfg, services = parse_config_text(
            FIG7 + "\n"
        )
        cfg = cfg.with_channel_override(1, "239.9.9.9:1234")
        text = render_config_text(cfg, services)
        cfg2, _ = parse_config_text(text)
        assert cfg2.channel(1) == "239.9.9.9:1234"


class TestKnobTable:
    """``KNOBS`` is the contract every configuration surface derives from."""

    def test_rows_name_config_fields_once(self):
        from dataclasses import fields

        from repro.core.config import KNOBS

        names = {f.name for f in fields(HierarchicalConfig)}
        assert all(k.attr in names for k in KNOBS)
        for column in ("attr", "key", "flag_name"):
            values = [getattr(k, column) for k in KNOBS]
            assert len(set(values)) == len(values), column
        assert all(k.help for k in KNOBS)

    def test_every_row_round_trips_through_the_file(self):
        from dataclasses import replace

        from repro.core.config import KNOBS

        cfg = HierarchicalConfig()
        for k in KNOBS:
            default = getattr(cfg, k.attr)
            other = "swim" if k.attr == "detector" else default * 2
            cfg = replace(cfg, **{k.attr: other})
        cfg = cfg.with_channel_override(1, "239.9.9.9:1234")
        text = render_config_text(cfg, [])
        assert all(f"{k.key} = " in text for k in KNOBS)
        assert parse_config_text(text) == (cfg, [])

    def test_parsers_reject_bad_values(self):
        from repro.core.config import KNOBS

        for k in KNOBS:
            with pytest.raises(ValueError):
                k.parse("not-a-value")

    def test_cluster_spec_config_accepts_only_knobs(self):
        from repro.runtime.anet import ClusterSpec

        raw = {"relay": {"host": "127.0.0.1", "port": 1}, "nodes": {}}
        spec = ClusterSpec.from_dict({**raw, "config": {"heartbeat_period": 0.25}})
        assert spec.config == {"heartbeat_period": 0.25}
        for key in ("heartbeat_perod", "election_delay"):
            with pytest.raises(ValueError, match=repr(key)):
                ClusterSpec.from_dict({**raw, "config": {key: 1.0}})

    # Literals captured from render_config_text before the table existed.
    RENDERED = {
        "default": (
            "*SYSTEM\nSHM_KEY = 999\nMAX_TTL = 4\nMCAST_ADDR = 239.255.0.2\n"
            "MCAST_PORT = 10050\nMCAST_FREQ = 1\nMAX_LOSS = 5\n\n*SERVICE\n"
        ),
        "fig7": (
            "*SYSTEM\nSHM_KEY = 999\nMAX_TTL = 4\nMCAST_ADDR = 239.255.0.2\n"
            "MCAST_PORT = 10050\nMCAST_FREQ = 1\nMAX_LOSS = 5\n\n*SERVICE\n"
            "[HTTP]\n    PARTITION = 0\n    Port = 8080\n[Cache]\n    PARTITION = 2\n"
        ),
        "detector": (
            "*SYSTEM\nSHM_KEY = 999\nMAX_TTL = 4\nMCAST_ADDR = 239.255.0.2\n"
            "MCAST_PORT = 10050\nMCAST_FREQ = 1\nMAX_LOSS = 5\nDETECTOR = swim\n"
            "PROBE_PERIOD = 0.5\nPROBE_TIMEOUT = 0.25\nINDIRECT_PROBES = 2\n"
            "SUSPICION_TIMEOUT = 1.5\nPHI_THRESHOLD = 6\nPHI_WINDOW = 16\n\n*SERVICE\n"
        ),
        "channels": (
            "*SYSTEM\nSHM_KEY = 7\nMAX_TTL = 3\nMCAST_ADDR = 239.1.2.3\n"
            "MCAST_PORT = 777\nMCAST_FREQ = 2.5\nMAX_LOSS = 3\n"
            "CHANNEL_L0 = 239.1.1.1:9000\nCHANNEL_L2 = 239.1.1.2:9000\n\n*SERVICE\n"
        ),
    }

    def test_render_is_byte_identical(self):
        assert render_config_text(HierarchicalConfig(), []) == self.RENDERED["default"]
        assert render_config_text(*parse_config_text(FIG7)) == self.RENDERED["fig7"]
        detector = HierarchicalConfig(
            detector="swim", probe_period=0.5, probe_timeout=0.25, indirect_probes=2,
            suspicion_timeout=1.5, phi_threshold=6.0, phi_window=16,
        )
        assert render_config_text(detector, []) == self.RENDERED["detector"]
        channels = (
            HierarchicalConfig(
                heartbeat_period=0.4, max_loss=3, shm_key=7, max_ttl=3,
                base_channel="239.1.2.3:777",
            )
            .with_channel_override(2, "239.1.1.2:9000")
            .with_channel_override(0, "239.1.1.1:9000")
        )
        assert render_config_text(channels, []) == self.RENDERED["channels"]
        for text in self.RENDERED.values():
            assert render_config_text(*parse_config_text(text)) == text
