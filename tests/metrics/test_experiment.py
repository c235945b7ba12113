"""Tests for the comparative failure-experiment runner."""

import pytest

from repro.metrics import SCHEMES, FailureExperiment, make_scheme_cluster


class TestMakeSchemeCluster:
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_deploys_and_converges(self, scheme):
        net, hosts, nodes = make_scheme_cluster(scheme, networks=1, hosts_per_network=6, seed=1)
        net.run(until=20.0)
        assert all(len(n.view()) == 6 for n in nodes.values())

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            make_scheme_cluster("bogus", 1, 4)


class TestFailureExperiment:
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_detects_and_converges(self, scheme):
        exp = FailureExperiment(
            scheme, networks=2, hosts_per_network=5, seed=1, observe=60.0
        )
        result = exp.run()
        assert result.num_nodes == 10
        assert result.detection is not None
        assert result.convergence is not None
        assert result.convergence >= result.detection
        assert result.observers == 9

    def test_bandwidth_window_measured(self):
        exp = FailureExperiment("all-to-all", networks=1, hosts_per_network=5, seed=1)
        result = exp.run()
        # 5 nodes x 4 receivers x 256 B x 1 Hz = 5120 B/s.
        assert result.bandwidth.aggregate_rate == pytest.approx(5120, rel=0.15)

    def test_bandwidth_skippable(self):
        exp = FailureExperiment(
            "all-to-all", networks=1, hosts_per_network=4, seed=1, bandwidth_window=0.0
        )
        assert exp.run().bandwidth is None

    def test_heartbeat_detection_near_fail_timeout(self):
        for scheme in ("all-to-all", "hierarchical"):
            result = FailureExperiment(scheme, 2, 5, seed=2).run()
            assert 5.0 <= result.detection <= 7.0

    def test_gossip_slower_than_heartbeat_schemes(self):
        gossip = FailureExperiment("gossip", 2, 10, seed=3, observe=80.0).run()
        hier = FailureExperiment("hierarchical", 2, 10, seed=3).run()
        assert gossip.detection > hier.detection

    def test_hierarchical_victim_is_not_a_leader_by_default(self):
        exp = FailureExperiment("hierarchical", 2, 5, seed=1)
        result = exp.run()
        # Leaders are the lowest-id host of each network.
        assert not result.victim.endswith("-h0")

    def test_kill_leader_flag(self):
        exp = FailureExperiment("hierarchical", 2, 5, seed=1, kill_leader=True, observe=60.0)
        result = exp.run()
        assert result.victim.endswith("-h0")
        assert result.detection is not None

    def test_deterministic(self):
        r1 = FailureExperiment("hierarchical", 2, 5, seed=7).run()
        r2 = FailureExperiment("hierarchical", 2, 5, seed=7).run()
        assert r1 == r2
