"""Tests for the Section 4 analysis and the Fig. 2 overhead model."""

import math

import pytest

from repro.analysis import (
    AllToAllModel,
    AllToAllOverheadModel,
    GossipModel,
    HierarchicalModel,
    MODELS,
)
from repro.protocols import ProtocolConfig


class TestAllToAllModel:
    def test_bandwidth_quadratic(self):
        m = AllToAllModel()
        assert m.aggregate_bandwidth(200) / m.aggregate_bandwidth(100) == pytest.approx(
            200 * 199 / (100 * 99)
        )

    def test_detection_constant(self):
        m = AllToAllModel()
        assert m.detection_time(20) == m.detection_time(4000) == 5.0

    def test_convergence_equals_detection(self):
        m = AllToAllModel()
        assert m.convergence_time(500) == m.detection_time(500)

    def test_bdt_quadratic(self):
        m = AllToAllModel()
        assert m.bdt(2000) / m.bdt(1000) == pytest.approx(4.0, rel=0.01)


class TestGossipModel:
    def test_bandwidth_quadratic(self):
        m = GossipModel()
        assert m.aggregate_bandwidth(200) / m.aggregate_bandwidth(100) == pytest.approx(4.0)

    def test_detection_logarithmic(self):
        m = GossipModel()
        d20, d100, d1000 = m.detection_time(20), m.detection_time(100), m.detection_time(1000)
        assert d20 < d100 < d1000
        assert (d1000 - d100) == pytest.approx(math.log2(10), rel=1e-6)

    def test_convergence_exceeds_detection(self):
        m = GossipModel()
        assert m.convergence_time(100) > m.detection_time(100)

    def test_bdt_worse_than_alltoall(self):
        g, a = GossipModel(), AllToAllModel()
        for n in (50, 100, 1000):
            assert g.bdt(n) > a.bdt(n)


class TestHierarchicalModel:
    def test_bandwidth_linear(self):
        m = HierarchicalModel()
        assert m.aggregate_bandwidth(2000) / m.aggregate_bandwidth(1000) == pytest.approx(
            2.0, rel=0.01
        )

    def test_per_node_bandwidth_constant(self):
        m = HierarchicalModel()
        assert m.per_node_bandwidth(4000) == pytest.approx(m.per_node_bandwidth(400), rel=0.05)

    def test_detection_constant(self):
        m = HierarchicalModel()
        assert m.detection_time(20) == m.detection_time(4000) == 5.0

    def test_convergence_adds_tree_hops(self):
        m = HierarchicalModel()
        extra = m.convergence_time(8000) - m.detection_time(8000)
        assert extra == pytest.approx(2 * (m.tree_height(8000) - 1) * 0.001)
        assert m.tree_height(8000) == 3  # log_20(8000) = 3

    def test_single_group_convergence_equals_detection(self):
        m = HierarchicalModel()
        assert m.convergence_time(20) == m.detection_time(20)

    def test_single_group_cluster(self):
        m = HierarchicalModel()
        assert m.num_groups(15) == 1.0
        a = AllToAllModel()
        # Within one group the hierarchical scheme IS all-to-all.
        assert m.aggregate_bandwidth(15) == a.aggregate_bandwidth(15)

    def test_best_bdt_of_the_three(self):
        models = {name: cls() for name, cls in MODELS.items()}
        for n in (100, 1000, 4000):
            bdts = {name: m.bdt(n) for name, m in models.items()}
            assert bdts["hierarchical"] == min(bdts.values())

    def test_best_bct_of_the_three(self):
        models = {name: cls() for name, cls in MODELS.items()}
        for n in (100, 1000, 4000):
            bcts = {name: m.bct(n) for name, m in models.items()}
            assert bcts["hierarchical"] == min(bcts.values())


class TestParams:
    def test_custom_params_flow_through(self):
        config = ProtocolConfig(member_size=100, heartbeat_period=0.5, max_loss=3)
        m = AllToAllModel(config)
        assert m.detection_time(100) == 1.5
        assert m.aggregate_bandwidth(10) == 2.0 * 10 * 9 * 100


class TestOverheadModel:
    def test_paper_endpoints(self):
        m = AllToAllOverheadModel()
        # ~4000 packets/s and ~4.5 % CPU at 4000 nodes (paper Fig. 2).
        assert m.packets_per_second(4000) == pytest.approx(3999)
        assert m.cpu_percent(4000) == pytest.approx(4.5, rel=0.01)
        # 1024-byte packets: ~4 MB/s = 32 % of Fast Ethernet.
        assert m.fast_ethernet_fraction(4000) == pytest.approx(0.327, rel=0.01)

    def test_linearity(self):
        m = AllToAllOverheadModel()
        assert m.cpu_percent(2001) == pytest.approx(m.cpu_percent(1001) * 2)

    def test_zero_and_one_node(self):
        m = AllToAllOverheadModel()
        assert m.packets_per_second(0) == 0
        assert m.cpu_percent(1) == 0.0

    def test_sweep_rows(self):
        m = AllToAllOverheadModel()
        rows = m.sweep([1000, 2000])
        assert [r[0] for r in rows] == [1000, 2000]
        assert rows[1][2] == pytest.approx(1999)

    def test_calibrate_roundtrip(self):
        truth = AllToAllOverheadModel(cpu_seconds_per_packet=20e-6)
        points = [(truth.packets_per_second(n), truth.cpu_percent(n)) for n in (1000, 3000)]
        fitted = AllToAllOverheadModel.calibrate(points)
        assert fitted.cpu_seconds_per_packet == pytest.approx(20e-6)

    def test_calibrate_requires_signal(self):
        with pytest.raises(ValueError):
            AllToAllOverheadModel.calibrate([(0.0, 0.0)])
