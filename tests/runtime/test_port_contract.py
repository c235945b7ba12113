"""Shared conformance suite for the :class:`NodeRuntime` timer contract.

Satellite of the real-network PR: the same behavioural suite runs
against **both** adapters — :class:`~repro.runtime.sim.SimRuntime` over
the discrete-event kernel and :class:`~repro.runtime.anet.AsyncRuntime`
over a live asyncio loop — so the contract pinned in
``repro/runtime/ports.py`` is enforced by tests, not prose:

* one-shots are epoch-guarded (dropped after ``bump_epoch`` or
  ``deactivate``), recurring timers are not (they die only with the
  life);
* ``call_every(first_delay=0)`` fires promptly, then keeps the period;
* non-positive periods and negative first delays are rejected;
* a callback cancelling its own recurring timer stops it cleanly;
* ``deactivate()`` called *inside* a timer callback cancels everything,
  including the currently-firing timer, and leaves no live timers;
* ``send`` to a spec-known destination is *accepted for send* (True);
  the asyncio adapter additionally refuses unknown destinations and
  unsendable datagrams instead of lying (the simulator cannot produce
  either refusal, so those cases are adapter-specific);
* the completion :class:`~repro.runtime.ports.Event` resumes its
  waiters through the timer queue at the current time, in registration
  order, never re-entrantly; a waiter added after ``succeed`` still
  resumes; succeeding twice raises; waiters die with the runtime's life;
* virtual addresses: the simulator's runtime claims, takes over,
  reports the owner of and releases an address (a send to it reaches
  the owner); the asyncio adapter refuses all three operations;
* the asyncio adapter encodes an interned heartbeat once: re-publishing
  the *same* frozen ``Heartbeat`` re-sends the previous datagram, while
  an equal-but-not-identical or non-heartbeat payload is encoded again
  (the simulator passes payloads by reference and encodes nothing).

The sim harness asserts exact virtual-time cadence; the asyncio harness
runs in real time with coarse tolerances (counts and invariants, not
exact instants).
"""

import asyncio
import dataclasses

import pytest

from repro.cluster.directory import NodeRecord
from repro.core.heartbeat import Heartbeat
from repro.net.builders import build_switched_cluster
from repro.net.network import Network
from repro.runtime import Event, anet
from repro.runtime.anet import AsyncRuntime, ClusterSpec, NodeSpec, RelaySpec
from repro.runtime.sim import SimRuntime
from repro.runtime.wire import decode_packet


class SimHarness:
    """SimRuntime over a tiny simulated network; virtual time."""

    name = "sim"
    #: One cadence unit.  Virtual seconds: exact and free.
    tick = 1.0
    exact = True

    def __init__(self):
        topo, hosts = build_switched_cluster(1, 2)
        self.net = Network(topo, seed=3)
        self.runtime = SimRuntime(self.net, hosts[0])
        self.peer = hosts[1]
        self.runtime.activate()

    def run(self, duration):
        self.net.run(until=self.runtime.now + duration)

    def close(self):
        self.runtime.deactivate()


class AsyncHarness:
    """AsyncRuntime on a private event loop; real time, coarse asserts."""

    name = "anet"
    #: One cadence unit.  Real seconds: keep small but flake-resistant.
    tick = 0.1
    exact = False

    def __init__(self):
        self.loop = asyncio.new_event_loop()
        spec = ClusterSpec(
            relay=RelaySpec(host="127.0.0.1", port=1),  # never contacted here
            nodes={
                "n0": NodeSpec(host="127.0.0.1", port=0),
                # A spec-known peer address nothing listens on: sends to
                # it are accepted (the contract promises no delivery).
                "n1": NodeSpec(host="127.0.0.1", port=1),
            },
        )
        self.runtime = AsyncRuntime(spec, "n0")
        self.peer = "n1"
        self.loop.run_until_complete(self.runtime.start())
        self.runtime.activate()

    def run(self, duration):
        self.loop.run_until_complete(asyncio.sleep(duration))

    def close(self):
        self.runtime.close()
        self.loop.run_until_complete(asyncio.sleep(0))
        self.loop.close()


@pytest.fixture(params=[SimHarness, AsyncHarness], ids=["sim", "anet"])
def harness(request):
    h = request.param()
    yield h
    h.close()


class TestOneShots:
    def test_fires_once_with_args(self, harness):
        fired = []
        harness.runtime.call_once(1 * harness.tick, fired.append, "x")
        harness.run(1.5 * harness.tick)
        assert fired == ["x"]
        harness.run(1.5 * harness.tick)
        assert fired == ["x"]

    def test_cancel_prevents_fire(self, harness):
        fired = []
        handle = harness.runtime.call_once(1 * harness.tick, fired.append, 1)
        handle.cancel()
        assert handle.cancelled
        harness.run(2 * harness.tick)
        assert fired == []

    def test_dropped_after_bump_epoch(self, harness):
        # The epoch guard proper: the timer stays scheduled but its
        # callback must not run into the new incarnation.
        fired = []
        harness.runtime.call_once(1 * harness.tick, fired.append, 1)
        harness.runtime.bump_epoch()
        harness.run(2 * harness.tick)
        assert fired == []

    def test_dropped_after_deactivate_reactivate(self, harness):
        # A restart (deactivate + activate) must not leak a one-shot from
        # the previous life even though the runtime is active again.
        fired = []
        harness.runtime.call_once(1 * harness.tick, fired.append, 1)
        harness.runtime.deactivate()
        harness.runtime.activate()
        harness.run(2 * harness.tick)
        assert fired == []

    def test_negative_delay_rejected(self, harness):
        with pytest.raises((ValueError, RuntimeError)):
            harness.runtime.call_once(-0.1, lambda: None)


class TestRecurring:
    def test_default_first_fire_after_one_period(self, harness):
        fired = []
        harness.runtime.call_every(1 * harness.tick, lambda: fired.append(1))
        harness.run(0.5 * harness.tick)
        assert fired == []  # not before the first period elapses
        harness.run(3 * harness.tick)
        if harness.exact:
            assert len(fired) == 3  # at 1, 2, 3 ticks
        else:
            assert len(fired) >= 2

    def test_first_delay_zero_fires_promptly_then_keeps_period(self, harness):
        # Pinned semantics: first_delay=0 is legal and means "fire as
        # soon as the loop turns", then every period after that.
        fired = []
        harness.runtime.call_every(
            2 * harness.tick, lambda: fired.append(1), first_delay=0
        )
        harness.run(0.5 * harness.tick)
        assert len(fired) == 1
        harness.run(2 * harness.tick)  # now at 2.5 ticks: fired at 0 and 2
        assert len(fired) == 2 if harness.exact else len(fired) >= 2

    def test_explicit_first_delay_phase(self, harness):
        fired = []
        harness.runtime.call_every(
            2 * harness.tick, lambda: fired.append(1), first_delay=0.5 * harness.tick
        )
        harness.run(1 * harness.tick)
        assert len(fired) == 1  # at 0.5 ticks
        harness.run(2 * harness.tick)  # now at 3 ticks: also fired at 2.5
        assert len(fired) == 2

    def test_negative_first_delay_rejected(self, harness):
        with pytest.raises((ValueError, RuntimeError)):
            harness.runtime.call_every(1.0, lambda: None, first_delay=-0.1)

    def test_nonpositive_period_rejected(self, harness):
        with pytest.raises((ValueError, RuntimeError)):
            harness.runtime.call_every(0.0, lambda: None)
        with pytest.raises((ValueError, RuntimeError)):
            harness.runtime.call_every(-1.0, lambda: None)

    def test_self_cancel_inside_callback_stops_rearming(self, harness):
        fired = []
        box = {}

        def tick():
            fired.append(1)
            box["handle"].cancel()

        box["handle"] = harness.runtime.call_every(1 * harness.tick, tick)
        harness.run(3.5 * harness.tick)
        assert len(fired) == 1

    def test_survives_bump_epoch(self, harness):
        # Recurring timers belong to the life, not the incarnation.
        fired = []
        harness.runtime.call_every(1 * harness.tick, lambda: fired.append(1))
        harness.runtime.bump_epoch()
        harness.run(1.5 * harness.tick)
        assert len(fired) >= 1


class TestDeactivateSemantics:
    def test_deactivate_inside_timer_callback(self, harness):
        # A protocol stopping itself from within its own tick (e.g. a
        # graceful leave on a heartbeat timer) must cancel everything:
        # the firing timer, its sibling recurrings, and pending one-shots.
        fired = {"self": 0, "other": 0, "oneshot": 0}
        runtime = harness.runtime

        def tick():
            fired["self"] += 1
            runtime.deactivate()

        runtime.call_every(1 * harness.tick, tick)
        runtime.call_every(1.25 * harness.tick, lambda: fired.__setitem__(
            "other", fired["other"] + 1))
        runtime.call_once(1.5 * harness.tick, lambda: fired.__setitem__(
            "oneshot", fired["oneshot"] + 1))
        harness.run(4 * harness.tick)
        assert fired == {"self": 1, "other": 0, "oneshot": 0}
        assert runtime.live_timers == 0
        assert not runtime.active

    def test_live_timers_accounting(self, harness):
        runtime = harness.runtime
        assert runtime.live_timers == 0
        h1 = runtime.call_once(10 * harness.tick, lambda: None)
        runtime.call_every(10 * harness.tick, lambda: None)
        assert runtime.live_timers == 2
        h1.cancel()
        assert runtime.live_timers == 1
        runtime.deactivate()
        assert runtime.live_timers == 0


class TestCompletion:
    """The one-shot completion handle, resumed through each adapter's timers."""

    def test_waiters_resume_in_order_via_queue(self, harness):
        ev = Event(harness.runtime)
        seen = []
        ev._add_waiter(lambda value: seen.append(("a", value)))
        ev._add_waiter(lambda value: seen.append(("b", value)))
        ev.succeed(7)
        assert seen == [] and ev.triggered and ev.value == 7  # never re-entrant
        harness.run(0.5 * harness.tick)
        assert seen == [("a", 7), ("b", 7)]

    def test_waiter_resumes_at_succeed_time(self, harness):
        runtime = harness.runtime
        ev = Event(runtime)
        seen = []
        ev._add_waiter(lambda value: seen.append((runtime.now, value)))
        runtime.call_once(2 * harness.tick, ev.succeed, "reply")
        harness.run(3 * harness.tick)
        assert [value for _t, value in seen] == ["reply"]
        if harness.exact:
            assert seen[0][0] == 2.0

    def test_late_waiter_still_resumes(self, harness):
        ev = Event(harness.runtime)
        ev.succeed("early")
        harness.run(1 * harness.tick)
        seen = []
        ev._add_waiter(seen.append)
        assert seen == []
        harness.run(0.5 * harness.tick)
        assert seen == ["early"]

    def test_double_succeed_raises(self, harness):
        ev = Event(harness.runtime)
        ev.succeed()
        with pytest.raises(RuntimeError):
            ev.succeed()

    def test_value_before_trigger_raises(self, harness):
        ev = Event(harness.runtime)
        with pytest.raises(RuntimeError):
            _ = ev.value
        ev.succeed(3)
        assert ev.value == 3

    def test_waiters_die_with_the_life(self, harness):
        ev = Event(harness.runtime)
        seen = []
        ev._add_waiter(seen.append)
        ev.succeed(1)
        harness.runtime.deactivate()
        harness.runtime.activate()
        harness.run(1 * harness.tick)
        assert seen == []


class TestVirtualAddresses:
    def test_claim_takeover_owner_and_release(self, harness):
        if harness.name != "sim":
            pytest.skip("only the simulator keeps an address table")
        runtime, peer = harness.runtime, SimRuntime(harness.net, harness.peer)
        assert runtime.address_owner("vip") is None
        runtime.claim_address("vip")
        assert peer.address_owner("vip") == runtime.node_id
        peer.claim_address("vip")  # IP takeover
        assert runtime.address_owner("vip") == harness.peer
        runtime.release_address("vip")  # not ours any more: no-op
        assert runtime.address_owner("vip") == harness.peer
        peer.release_address("vip")
        assert runtime.address_owner("vip") is None

    def test_send_to_claimed_address(self, harness):
        if harness.name != "sim":
            pytest.skip("only the simulator keeps an address table")
        peer = SimRuntime(harness.net, harness.peer)
        got = []
        peer.bind("svc", got.append)
        peer.claim_address("vip")
        assert harness.runtime.send("vip", "req", {"x": 1}, size=10, port="svc")
        harness.run(1 * harness.tick)
        assert [(p.kind, p.payload) for p in got] == [("req", {"x": 1})]

    def test_real_transport_refuses(self, harness):
        if harness.name != "anet":
            pytest.skip("the simulator implements virtual addresses")
        runtime = harness.runtime
        for op in (runtime.claim_address, runtime.release_address, runtime.address_owner):
            with pytest.raises(NotImplementedError, match="virtual addresses"):
                op("vip")


class TestSendContract:
    def test_send_to_known_destination_accepted(self, harness):
        # True = accepted for send, nothing more; both adapters agree
        # for a destination the deployment knows an address for.
        assert harness.runtime.send(harness.peer, "hb", {"x": 1}, size=10) is True

    def test_publish_accepted_with_live_endpoint(self, harness):
        assert harness.runtime.publish("chan", 2, "hb", {"x": 1}, size=10) is True

    def test_unknown_destination_refused_by_real_transport(self, harness):
        # Only the asyncio adapter can refuse locally: the simulator
        # resolves hosts through the topology and has no address book.
        if harness.name != "anet":
            pytest.skip("simulator resolves destinations via the topology")
        assert harness.runtime.send("ghost", "hb", None, size=0) is False

    def test_unsendable_datagram_refused_by_real_transport(self, harness):
        # An encoded frame beyond the OS datagram limit with
        # fragmentation sidelined must come back False, not vanish.
        if harness.name != "anet":
            pytest.skip("simulated transport has no datagram size limit")
        harness.runtime.max_datagram = 200_000  # sidestep fragmentation
        ok = harness.runtime.send(harness.peer, "blob", b"x" * 70_000, size=70_000)
        assert ok is False
        assert harness.runtime.send_errors >= 1


class TestEncodeOnce:
    """The wire twin of ``Announcer.hb_cache`` (asyncio adapter only)."""

    @pytest.fixture
    def wired(self, monkeypatch):
        """An AsyncHarness with its sends and its encodes recorded."""
        harness = AsyncHarness()
        sent, encoded = [], []
        monkeypatch.setattr(
            harness.runtime, "_sendto", lambda data, addr: sent.append(data) or True
        )
        real_encode = anet.encode_packet

        def counting_encode(pkt, port=None):
            encoded.append(pkt.kind)
            return real_encode(pkt, port)

        monkeypatch.setattr(anet, "encode_packet", counting_encode)
        yield harness.runtime, sent, encoded
        harness.close()

    @staticmethod
    def heartbeat(**changes):
        hb = Heartbeat(
            record=NodeRecord("n0", incarnation=1, attrs={"cpus": "2"}),
            level=0, is_leader=False, suppressed=True,
        )
        return dataclasses.replace(hb, **changes) if changes else hb

    def test_same_interned_heartbeat_is_encoded_once(self, wired):
        runtime, sent, encoded = wired
        hb = self.heartbeat()
        for _ in range(5):
            assert runtime.publish("chan/L0", 1, "heartbeat", hb, 256) is True
        assert encoded == ["heartbeat"]
        assert len(sent) == 5 and len(set(sent)) == 1
        assert all(data is sent[0] for data in sent)
        assert decode_packet(sent[0])[0].payload == hb

    def test_equal_but_not_identical_heartbeat_encodes_again(self, wired):
        runtime, sent, encoded = wired
        runtime.publish("chan/L0", 1, "heartbeat", self.heartbeat(), 256)
        runtime.publish("chan/L0", 1, "heartbeat", self.heartbeat(), 256)
        assert encoded == ["heartbeat", "heartbeat"]
        assert sent[0] == sent[1]  # canonical bytes, earned the slow way

    def test_changed_heartbeat_replaces_the_channels_datagram(self, wired):
        runtime, sent, encoded = wired
        old, new = self.heartbeat(), self.heartbeat(update_seq=3)
        for hb in (old, old, new, new, old):
            runtime.publish("chan/L0", 1, "heartbeat", hb, 256)
        assert len(encoded) == 3  # old, new, old again: one slot per channel
        assert sent[0] is sent[1] and sent[2] is sent[3] and sent[0] != sent[2]
        assert sent[4] == sent[0]

    def test_ttl_kind_and_size_are_part_of_the_match(self, wired):
        runtime, sent, encoded = wired
        hb = self.heartbeat()
        runtime.publish("chan/L0", 1, "heartbeat", hb, 256)
        runtime.publish("chan/L0", 2, "heartbeat", hb, 256)
        runtime.publish("chan/L0", 2, "hb2", hb, 256)
        runtime.publish("chan/L0", 2, "hb2", hb, 300)
        assert len(encoded) == 4 and len(set(sent)) == 4

    def test_channels_do_not_share_a_datagram(self, wired):
        runtime, sent, encoded = wired
        hb = self.heartbeat()
        for channel in ("chan/L0", "chan/L1", "chan/L0", "chan/L1"):
            runtime.publish(channel, 1, "heartbeat", hb, 256)
        assert len(encoded) == 2
        assert [decode_packet(data)[0].channel for data in sent] == [
            "chan/L0", "chan/L1", "chan/L0", "chan/L1",
        ]

    def test_other_payloads_are_encoded_every_time(self, wired):
        runtime, sent, encoded = wired
        update = {"ops": (1, 2, 3)}
        hb = self.heartbeat()
        runtime.publish("chan/L0", 1, "heartbeat", hb, 256)
        for _ in range(3):
            runtime.publish("chan/L0", 1, "update", update, 64)
        runtime.publish("chan/L0", 1, "heartbeat", hb, 256)
        # An update in between neither is remembered nor costs the
        # heartbeat its slot.
        assert encoded == ["heartbeat", "update", "update", "update"]
        assert sent[4] is sent[0]

    def test_deactivate_and_unsubscribe_drop_the_encode_side(self, wired):
        runtime, sent, encoded = wired
        hb = self.heartbeat()
        runtime.publish("chan/L0", 1, "heartbeat", hb, 256)
        runtime.publish("chan/L1", 2, "heartbeat", hb, 256)
        assert set(runtime._published) == {"chan/L0", "chan/L1"}
        runtime.unsubscribe("chan/L1")
        assert set(runtime._published) == {"chan/L0"}
        runtime.deactivate()
        assert runtime._published == {}
        runtime.activate()
        runtime.publish("chan/L0", 1, "heartbeat", hb, 256)
        assert encoded.count("heartbeat") == 3
