"""Strategy-conformance suite: every detector against a fake runtime.

The detectors speak only :class:`~repro.runtime.ports.NodeRuntime` ports,
so the role-test :class:`FakeRuntime` drives them without a simulator:
manual clock, recorded sends/emits, firable timers.  The parametrized
tests pin the contract every strategy must honour — fresh peers are never
silent, observations reset silence, ``forget`` drops all soft state, and
``stop`` cancels every timer the detector created.
"""

from __future__ import annotations

import math
from typing import Dict, List

import pytest

from repro.analysis.models import MODELS
from repro.core.groups import PeerState
from repro.detect import (
    DETECTORS,
    CounterDetector,
    FailureDetector,
    PhiAccrualDetector,
    SwimDetector,
    UnicastProber,
    handle_probe_packet,
    make_detector,
)
from repro.detect.bounds import LN10, detection_bound
from repro.net.packet import Packet
from repro.protocols.base import ProtocolConfig
from repro.runtime import HEADER_SIZE
from tests.core.roles.conftest import FakeRuntime

ALL = sorted(DETECTORS)
SCOPE = "test"


class FakeGroup:
    """Just the ``peers`` mapping :meth:`silent_peers` reads."""

    def __init__(self, peers: Dict[str, PeerState]) -> None:
        self.peers = peers


def peer(node_id: str, last_heard: float) -> PeerState:
    return PeerState(node_id=node_id, last_heard=last_heard)


def build(name: str, members: List[str] = (), **overrides) -> tuple:
    config = ProtocolConfig(detector=name, **overrides)
    runtime = FakeRuntime("n0")
    det = make_detector(config, runtime)
    det.attach(
        prober=UnicastProber(runtime, "detect"),
        members=lambda: list(members),
    )
    return det, runtime, config


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_all_strategies_registered(self):
        assert set(DETECTORS) == {"counter", "swim", "phi-accrual"}
        assert DETECTORS["counter"] is CounterDetector
        assert DETECTORS["swim"] is SwimDetector
        assert DETECTORS["phi-accrual"] is PhiAccrualDetector

    def test_registry_names_match_class_names(self):
        for name, cls in DETECTORS.items():
            assert cls.name == name

    def test_make_detector_unknown_raises(self):
        config = ProtocolConfig()
        object.__setattr__(config, "detector", "psychic")
        with pytest.raises(ValueError, match="psychic"):
            make_detector(config, FakeRuntime("n0"))

    @pytest.mark.parametrize("name", ALL)
    def test_make_detector_builds_the_right_class(self, name):
        det, _, _ = build(name)
        assert type(det) is DETECTORS[name]


# ----------------------------------------------------------------------
# Shared contract
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ALL)
class TestConformance:
    def test_fresh_peer_is_not_silent(self, name):
        det, runtime, _ = build(name)
        det.start()
        assert det.silent_ids(SCOPE, ["ghost"], runtime.now, 5.0) == []
        det.stop()

    def test_group_silence_declares_after_timeout(self, name):
        det, runtime, _ = build(name)
        det.start()
        runtime.advance(20.0)
        group = FakeGroup(
            {"old": peer("old", 0.0), "new": peer("new", runtime.now)}
        )
        dead = det.silent_peers(SCOPE, group, runtime.now, 5.0)
        assert [p.node_id for p in dead] == ["old"]
        det.stop()

    def test_observation_resets_silence(self, name):
        det, runtime, _ = build(name)
        det.start()
        det.observe_heartbeat(SCOPE, "p1", runtime.now)
        runtime.advance(4.9)
        assert det.silent_ids(SCOPE, ["p1"], runtime.now, 5.0) == []
        runtime.advance(0.2)
        assert det.silent_ids(SCOPE, ["p1"], runtime.now, 5.0) == ["p1"]
        det.stop()

    def test_later_observation_wins(self, name):
        # Observation ordering: the freshest heartbeat sets the deadline.
        det, runtime, _ = build(name)
        det.start()
        det.observe_heartbeat(SCOPE, "p1", runtime.now)
        runtime.advance(4.0)
        det.observe_heartbeat(SCOPE, "p1", runtime.now)
        runtime.advance(4.0)
        assert det.silent_ids(SCOPE, ["p1"], runtime.now, 5.0) == []
        det.stop()

    def test_forget_drops_all_soft_state(self, name):
        det, runtime, _ = build(name)
        det.start()
        det.observe_heartbeat(SCOPE, "p1", runtime.now)
        runtime.advance(30.0)
        det.forget("p1", SCOPE)
        # A forgotten peer is a stranger again — never silent on sight.
        assert det.silent_ids(SCOPE, ["p1"], runtime.now, 5.0) == []
        det.stop()

    def test_stop_cancels_every_timer(self, name):
        det, runtime, _ = build(name, members=["p1", "p2", "p3"])
        det.start()
        if det.uses_probes:
            assert runtime.live_timers > 0
            for timer in list(runtime.recurring):
                timer.fn(*timer.args)  # fire a probe round: arms one-shots
            assert any(not t.cancelled for t in runtime.oneshots)
        det.stop()
        assert runtime.live_timers == 0

    def test_detection_bound_routes_through_bounds(self, name):
        det, _, config = build(name)
        for scheme, model_cls in MODELS.items():
            expected = detection_bound(det.config, n=12, scheme=scheme)
            assert model_cls(config).detection_time(12) == expected > 0.0

    def test_passive_flag_matches_strategy(self, name):
        det, _, _ = build(name)
        assert det.passive is (name == "counter")


# ----------------------------------------------------------------------
# SWIM specifics
# ----------------------------------------------------------------------
class TestSwim:
    MEMBERS = ["p1", "p2", "p3", "p4"]

    def fire_round(self, det, runtime) -> str:
        for timer in list(runtime.recurring):
            timer.fn(*timer.args)
        probes = [s for s in runtime.sent if s[1] == "probe"]
        assert probes, "probe round sent nothing"
        return probes[-1][0]

    def drive_to_suspect(self, det, runtime, config) -> str:
        target = self.fire_round(det, runtime)
        runtime.advance(config.probe_timeout + 0.01)  # direct timeout
        runtime.advance(config.probe_timeout + 0.01)  # indirect timeout
        assert any(kind == "suspect" for _, kind, _ in runtime.emitted)
        return target

    def test_probe_round_pings_a_member(self, name="swim"):
        det, runtime, config = build("swim", members=self.MEMBERS)
        det.start()
        target = self.fire_round(det, runtime)
        assert target in self.MEMBERS
        dst, kind, payload, size, port = runtime.sent[-1]
        assert payload == {"origin": "n0"}
        assert port == "detect"
        assert size == HEADER_SIZE + 16

    def test_direct_timeout_fans_out_ping_reqs(self):
        det, runtime, config = build("swim", members=self.MEMBERS)
        det.start()
        target = self.fire_round(det, runtime)
        runtime.advance(config.probe_timeout + 0.01)
        reqs = [s for s in runtime.sent if s[1] == "probe-req"]
        assert len(reqs) == min(config.indirect_probes, len(self.MEMBERS) - 1)
        for dst, _, payload, _, _ in reqs:
            assert dst != target
            assert payload == {"target": target, "origin": "n0"}

    def test_unanswered_probe_suspects_then_declares(self):
        det, runtime, config = build("swim", members=self.MEMBERS)
        det.start()
        target = self.drive_to_suspect(det, runtime, config)
        # Not declared until the suspicion deadline passes.
        assert det.silent_ids(SCOPE, [target], runtime.now, 1e9) == []
        runtime.advance(config.suspicion_timeout + 0.01)
        assert det.silent_ids(SCOPE, [target], runtime.now, 1e9) == [target]
        assert any(kind == "suspect_expired" for _, kind, _ in runtime.emitted)

    def test_ack_refutes_in_flight_probe(self):
        det, runtime, config = build("swim", members=self.MEMBERS)
        det.start()
        target = self.fire_round(det, runtime)
        det.observe_ack(target, runtime.now)
        runtime.advance(config.probe_timeout + 0.01)
        runtime.advance(config.probe_timeout + config.suspicion_timeout + 1.0)
        assert not [s for s in runtime.sent if s[1] == "probe-req"]
        assert det.silent_ids(SCOPE, [target], runtime.now, 1e9) == []

    def test_heartbeat_refutes_suspicion(self):
        det, runtime, config = build("swim", members=self.MEMBERS)
        det.start()
        target = self.drive_to_suspect(det, runtime, config)
        det.observe_heartbeat(SCOPE, target, runtime.now, incarnation=1)
        assert any(kind == "suspect_refuted" for _, kind, _ in runtime.emitted)
        runtime.advance(config.suspicion_timeout + 1.0)
        assert det.silent_ids(SCOPE, [target], runtime.now, 1e9) == []

    def test_bumped_incarnation_clears_declaration(self):
        det, runtime, config = build("swim", members=self.MEMBERS)
        det.start()
        target = self.drive_to_suspect(det, runtime, config)
        runtime.advance(config.suspicion_timeout + 0.2)
        assert det.silent_ids(SCOPE, [target], runtime.now, 1e9) == [target]
        det.observe_heartbeat(SCOPE, target, runtime.now, incarnation=2)
        assert det.silent_ids(SCOPE, [target], runtime.now, 1e9) == []

    def test_stop_cancels_in_flight_probe_timers(self):
        det, runtime, _ = build("swim", members=self.MEMBERS)
        det.start()
        self.fire_round(det, runtime)
        assert any(not t.cancelled for t in runtime.oneshots)
        det.stop()
        assert runtime.live_timers == 0
        sent_before = len(runtime.sent)
        runtime.advance(100.0)
        assert len(runtime.sent) == sent_before  # nothing fires after stop

    def test_declared_peers_leave_the_probe_pool(self):
        det, runtime, config = build("swim", members=["p1"])
        det.start()
        self.drive_to_suspect(det, runtime, config)
        runtime.advance(config.suspicion_timeout + 0.2)
        assert det.silent_ids(SCOPE, ["p1"], runtime.now, 1e9) == ["p1"]
        sent_before = len(runtime.sent)
        for timer in list(runtime.recurring):
            timer.fn(*timer.args)
        assert len(runtime.sent) == sent_before  # no probes at the dead


# ----------------------------------------------------------------------
# φ-accrual specifics
# ----------------------------------------------------------------------
class TestPhiAccrual:
    def warm(self, det, runtime, peer_id="p1", beats=6, period=1.0):
        for _ in range(beats):
            det.observe_heartbeat(SCOPE, peer_id, runtime.now)
            runtime.advance(period)

    def test_phi_is_none_while_warming(self):
        det, runtime, _ = build("phi-accrual")
        det.start()
        det.observe_heartbeat(SCOPE, "p1", runtime.now)
        assert det.phi(SCOPE, "p1", runtime.now + 3.0) is None

    def test_learned_cadence_overrides_the_timeout(self):
        det, runtime, config = build("phi-accrual")
        det.start()
        self.warm(det, runtime)
        # 2s of silence on a 1s cadence: φ ≈ 2/ln10 « threshold, alive —
        # even against a counter deadline that would already have fired.
        runtime.advance(1.0)
        assert det.silent_ids(SCOPE, ["p1"], runtime.now, 0.5) == []
        # Silence beyond φ·ln10·mean: dead, even with an enormous timeout.
        runtime.advance(config.phi_threshold * LN10 * 1.0 + 1.0)
        assert det.silent_ids(SCOPE, ["p1"], runtime.now, 1e9) == ["p1"]

    def test_slower_cadence_earns_more_patience(self):
        det, runtime, _ = build("phi-accrual")
        det.start()
        self.warm(det, runtime, peer_id="fast", period=1.0)
        self.warm(det, runtime, peer_id="slow", period=3.0)
        gap = 8.0 * LN10 * 2.0  # kills a 1s cadence, not a 3s one
        runtime.advance(gap)
        dead = det.silent_ids(SCOPE, ["fast", "slow"], runtime.now, 1e9)
        assert dead == ["fast"]

    def test_scopes_are_isolated(self):
        det, runtime, _ = build("phi-accrual")
        det.start()
        self.warm(det, runtime)
        # No observations ever arrived on the other scope: stranger, alive.
        assert det.silent_ids("other", ["p1"], runtime.now, 5.0) == []

    def test_phi_value_matches_formula(self):
        det, runtime, _ = build("phi-accrual")
        det.start()
        self.warm(det, runtime, period=2.0)
        silence = 10.0
        score = det.phi(SCOPE, "p1", runtime.now - 2.0 + silence)
        assert score == pytest.approx(silence / (2.0 * LN10))


# ----------------------------------------------------------------------
# Probe wire protocol
# ----------------------------------------------------------------------
class RecordingDetector(FailureDetector):
    name = "recording"
    passive = False

    def __init__(self, config, runtime):
        super().__init__(config, runtime)
        self.acks: List[str] = []

    def observe_ack(self, peer_id, now):
        self.acks.append(peer_id)

    def silent_peers(self, scope, group, now, timeout):
        return []

    def silent_ids(self, scope, candidates, now, timeout):
        return []


class TestProbeWire:
    def setup_method(self):
        self.runtime = FakeRuntime("relay")
        self.config = ProtocolConfig()
        self.det = RecordingDetector(self.config, self.runtime)

    def handle(self, packet) -> bool:
        return handle_probe_packet(self.runtime, self.det, packet, "detect")

    def test_probe_is_acked_to_the_origin(self):
        pkt = Packet(src="hop", dst="relay", kind="probe", payload={"origin": "n0"}, size=1)
        assert self.handle(pkt)
        dst, kind, payload, size, port = self.runtime.sent[-1]
        assert (dst, kind, payload) == ("n0", "probe-ack", {})
        assert (size, port) == (HEADER_SIZE + 8, "detect")

    def test_probe_req_is_relayed_as_a_probe(self):
        pkt = Packet(
            src="n0",
            dst="relay",
            kind="probe-req",
            payload={"target": "victim", "origin": "n0"},
            size=1,
        )
        assert self.handle(pkt)
        dst, kind, payload, _, _ = self.runtime.sent[-1]
        assert (dst, kind) == ("victim", "probe")
        assert payload == {"origin": "n0"}  # the ack skips the relay

    def test_probe_ack_feeds_the_detector(self):
        pkt = Packet(src="victim", dst="relay", kind="probe-ack", payload={}, size=1)
        assert self.handle(pkt)
        assert self.det.acks == ["victim"]
        assert not self.runtime.sent

    def test_other_kinds_are_not_consumed(self):
        pkt = Packet(src="n0", dst="relay", kind="heartbeat", payload={}, size=1)
        assert not self.handle(pkt)
        assert not self.runtime.sent


# ----------------------------------------------------------------------
# Advertised bounds
# ----------------------------------------------------------------------
class TestBounds:
    def test_counter_default_is_the_paper_formula(self):
        assert detection_bound(ProtocolConfig()) == 5.0
        assert detection_bound(ProtocolConfig(heartbeat_period=0.5, max_loss=4)) == 2.0

    def test_counter_gossip_bound_grows_logarithmically(self):
        small = detection_bound(ProtocolConfig(), n=8, scheme="gossip")
        large = detection_bound(ProtocolConfig(), n=64, scheme="gossip")
        assert large > small
        assert large - small == pytest.approx(math.log2(64) - math.log2(8))

    def test_swim_bound_combines_the_three_phases(self):
        got = detection_bound(
            ProtocolConfig(detector="swim", probe_timeout=0.5, suspicion_timeout=2.0)
        )
        assert got == pytest.approx(1.0 / (1.0 - math.exp(-1.0)) + 1.0 + 2.0)

    def test_phi_bound_scales_with_threshold(self):
        lo = detection_bound(ProtocolConfig(detector="phi-accrual", phi_threshold=4.0))
        hi = detection_bound(ProtocolConfig(detector="phi-accrual", phi_threshold=8.0))
        assert hi == pytest.approx(2.0 * lo)
        assert hi == pytest.approx(8.0 * LN10)

    def test_unknown_detector_raises(self):
        with pytest.raises(ValueError):
            detection_bound(ProtocolConfig(detector="psychic"))
