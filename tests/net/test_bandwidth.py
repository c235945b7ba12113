"""Unit tests for the nested-counter BandwidthMeter."""

import pytest

from repro.net.bandwidth import BandwidthMeter


class TestRecord:
    def test_totals_by_host_and_direction(self):
        m = BandwidthMeter()
        m.record(0.0, "h1", "rx", "hb", 100)
        m.record(1.0, "h1", "rx", "hb", 50)
        m.record(2.0, "h1", "tx", "hb", 30)
        m.record(3.0, "h2", "rx", "update", 20)
        assert m.bytes("h1", "rx") == 150
        assert m.bytes("h1", "tx") == 30
        assert m.bytes(direction="rx") == 170
        assert m.packets("h1", "rx") == 2
        assert m.packets(direction="rx") == 3
        assert m.bytes("missing", "rx") == 0
        assert m.packets("missing", "tx") == 0

    def test_bytes_by_kind(self):
        m = BandwidthMeter()
        m.record(0.0, "h1", "rx", "hb", 100)
        m.record(0.0, "h2", "rx", "hb", 10)
        m.record(0.0, "h1", "rx", "update", 7)
        m.record(0.0, "h1", "tx", "hb", 999)
        assert m.bytes_by_kind("hb") == 110
        assert m.bytes_by_kind("hb", direction="tx") == 999
        assert m.bytes_by_kind("nope") == 0

    def test_duration_and_rates(self):
        m = BandwidthMeter()
        m.record(2.0, "h1", "rx", "hb", 100)
        m.record(6.0, "h1", "rx", "hb", 100)
        assert m.duration == 4.0
        assert m.aggregate_rate("rx") == pytest.approx(50.0)
        assert m.packet_rate("h1", "rx") == pytest.approx(0.5)
        assert m.per_host_rates("rx") == {"h1": pytest.approx(50.0)}

    def test_reset_clears_everything(self):
        m = BandwidthMeter()
        m.record(1.0, "h1", "rx", "hb", 100)
        m.reset()
        assert m.bytes(direction="rx") == 0
        assert m.duration == 0.0


class TestRecordMany:
    def test_equivalent_to_individual_records(self):
        batch, single = BandwidthMeter(), BandwidthMeter()
        hosts = ["h1", "h2", "h3"]
        batch.record_many(5.0, hosts, "rx", "hb", 228)
        for h in hosts:
            single.record(5.0, h, "rx", "hb", 228)
        for h in hosts:
            assert batch.bytes(h, "rx") == single.bytes(h, "rx") == 228
            assert batch.packets(h, "rx") == single.packets(h, "rx") == 1
        assert batch.bytes_by_kind("hb") == single.bytes_by_kind("hb")
        assert batch.duration == single.duration

    def test_empty_batch_is_noop_except_time(self):
        m = BandwidthMeter()
        m.record_many(3.0, [], "rx", "hb", 10)
        assert m.packets(direction="rx") == 0
        # Time bounds still observe the batch instant, mirroring a tx-only
        # record at that time.
        assert m.duration == 0.0

    def test_repeat_host_counts_twice(self):
        m = BandwidthMeter()
        m.record_many(0.0, ["h1", "h1"], "rx", "hb", 10)
        assert m.packets("h1", "rx") == 2
        assert m.bytes("h1", "rx") == 20
