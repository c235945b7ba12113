"""Unit tests for the protocol hot-path engine (interning + fast receive).

The behavioural contract (seeded traces pinned to golden hashes) is
enforced by ``tests/integration/test_determinism_guard.py``; these
tests pin the *mechanisms*: senders reuse one frozen heartbeat object per
level between state changes, the documented signature invalidates it, and
the receive fast path keeps peers and the directory fresh.
"""

from repro.cluster import ServiceSpec
from repro.core import HierarchicalNode
from repro.net import Network
from repro.net.builders import build_switched_cluster
from repro.protocols import deploy


def make_cluster(networks=1, hosts=4, seed=3):
    # One extra host per network stays node-less: a real topology position
    # the heartbeat probe can subscribe from.
    topo, hosts_list = build_switched_cluster(networks, hosts + 1)
    probe_host = hosts_list.pop()
    net = Network(topo, seed=seed)
    nodes = deploy(HierarchicalNode, net, hosts_list)
    return net, hosts_list, nodes, probe_host


def capture_heartbeats(net, channel, sender, probe_host):
    """Subscribe a probe that records heartbeat payloads from ``sender``."""
    seen = []

    def probe(packet):
        if packet.kind == "heartbeat" and packet.payload.node_id == sender:
            seen.append(packet.payload)

    net.subscribe(channel, probe_host, probe)
    return seen


class TestHeartbeatInterning:
    def test_steady_state_reuses_one_payload_object(self):
        net, hosts, nodes, probe_host = make_cluster()
        net.run(until=12.0)  # formation settles
        seen = capture_heartbeats(
            net, nodes[hosts[0]].config.channel(0), hosts[0], probe_host
        )
        net.run(until=25.0)
        assert len(seen) >= 5
        # Late joiner syncs may still advance update_seq shortly after
        # formation; once genuinely quiet, every period reuses one object.
        tail = seen[-5:]
        assert all(hb is tail[0] for hb in tail)

    def test_self_record_change_invalidates_cached_heartbeat(self):
        net, hosts, nodes, probe_host = make_cluster()
        net.run(until=12.0)
        node = nodes[hosts[0]]
        seen = capture_heartbeats(net, node.config.channel(0), hosts[0], probe_host)
        net.run(until=15.0)
        before = seen[-1]
        node.register_service(ServiceSpec("idx", "0-3"))
        net.run(until=18.0)
        after = seen[-1]
        assert after is not before
        assert "idx" in after.record.services

    def test_update_seq_advance_invalidates_cached_heartbeat(self):
        net, hosts, nodes, probe_host = make_cluster(hosts=5)
        net.run(until=12.0)
        leader = next(h for h in hosts if nodes[h].is_leader(0))
        seen = capture_heartbeats(
            net, nodes[leader].config.channel(0), leader, probe_host
        )
        net.run(until=15.0)
        before = seen[-1]
        # A member leaving makes the leader originate a remove update,
        # advancing its update_seq on the channel.
        victim = next(h for h in hosts if h != leader)
        nodes[victim].leave()
        net.run(until=18.0)
        after = seen[-1]
        assert after is not before
        assert after.update_seq > before.update_seq


class TestReceiveFastPath:
    def test_unchanged_heartbeats_keep_everything_fresh(self):
        net, hosts, nodes, _probe = make_cluster(hosts=6)
        net.run(until=60.0)  # dozens of quiet periods on the fast path
        for node in nodes.values():
            assert node.view() == sorted(hosts)
        # Nobody was ever wrongly purged.
        assert not list(net.trace.records(kind="member_down"))

    def test_failure_detection_still_works_on_fast_path(self):
        net, hosts, nodes, _probe = make_cluster(hosts=6)
        net.run(until=20.0)
        victim = hosts[3]
        nodes[victim].stop()
        net.crash_host(victim)
        net.run(until=40.0)
        for h in hosts:
            if h != victim:
                assert victim not in nodes[h].view()
