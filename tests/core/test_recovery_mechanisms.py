"""Direct tests of the protocol's loss/staleness recovery mechanisms.

The paper specifies sequence numbers + piggybacking + sync polls; a
faithful implementation over lossy UDP additionally needs the mechanisms
tested here (each documented in the repro.core module docstrings):

* heartbeat-advertised update sequence numbers (last-message loss),
* authoritative snapshot pruning on sync responses,
* death certificates (tombstones) with quarantine,
* active tombstone refutation and SWIM-style incarnation bumps,
* pending-sync retry (bootstrap over lossy links),
* the bootstrap-announce window after leadership changes.
"""

from repro.core import HierarchicalNode
from repro.core import config as config_module
from repro.core.updates import UpdateOp
from repro.net import Network
from repro.net.builders import build_switched_cluster
from repro.protocols import deploy


def make(networks=2, hosts=5, seed=1, loss=0.0, config=None):
    topo, hostlist = build_switched_cluster(networks, hosts)
    net = Network(topo, seed=seed, loss_rate=loss, proc_delay=0.0)
    nodes = deploy(HierarchicalNode, net, hostlist, config=config)
    return net, hostlist, nodes


class TestHeartbeatSeqAdvertising:
    def test_lost_last_update_recovered_via_heartbeat(self):
        """Drop the only remove-update a member would get; the next leader
        heartbeat advertises the missed seq and triggers a sync poll."""
        net, hosts, nodes = make(2, 5)
        net.run(until=15.0)
        member = hosts[1]
        leader = nodes[member].leader_of(0)
        # Simulate the exact loss: wipe the member's knowledge of one node
        # as if the update both (a) removed it everywhere else and (b) got
        # lost here.  We emulate by advancing the leader's seq while the
        # member misses the message: kill a remote node but isolate the
        # member for the delivery instant.
        victim = hosts[7]  # other network
        nodes[victim].stop()
        net.crash_host(victim)
        # Member goes deaf exactly during the detection/update window.
        net.topo.set_up(member, False)
        net.run(until=23.0)
        net.topo.set_up(member, True)
        nodes[member]._ctx.announcer.send_heartbeat(0)  # re-announce quickly
        net.run(until=40.0)
        assert victim not in nodes[member].view()
        assert nodes[member].view() == sorted(set(hosts) - {victim})


class TestTombstones:
    def test_dead_node_not_resurrected_by_stale_snapshot(self):
        net, hosts, nodes = make(2, 5)
        net.run(until=15.0)
        victim = hosts[3]
        observer = nodes[hosts[1]]
        nodes[victim].stop()
        net.crash_host(victim)
        net.run(until=25.0)  # removal converged
        assert victim not in observer.view()
        # Inject a stale add (as if an ancient sync_resp arrived).
        stale_record = observer.directory.get(hosts[0]).__class__(
            node_id=victim, incarnation=1
        )
        observer._ctx.informer.apply_ops(
            [UpdateOp("add", victim, 1, stale_record)], via=hosts[0]
        )
        assert victim not in observer.view()  # tombstone rejected it

    def test_higher_incarnation_beats_tombstone(self):
        net, hosts, nodes = make(2, 5)
        net.run(until=15.0)
        victim = hosts[3]
        observer = nodes[hosts[1]]
        nodes[victim].stop()
        net.crash_host(victim)
        net.run(until=25.0)
        fresh = observer.directory.get(hosts[0]).__class__(
            node_id=victim, incarnation=2
        )
        observer._ctx.informer.apply_ops([UpdateOp("add", victim, 2, fresh)], via=hosts[0])
        assert victim in observer.view()

    def test_tombstone_expires_after_quarantine(self, monkeypatch):
        monkeypatch.setattr(config_module, "TOMBSTONE_QUARANTINE_FACTOR", 1.0)  # 5 s
        net, hosts, nodes = make(2, 5)
        net.run(until=15.0)
        victim = hosts[3]
        observer = nodes[hosts[1]]
        nodes[victim].stop()
        net.crash_host(victim)
        net.run(until=25.0)
        net.run(until=45.0)  # far past quarantine
        stale = observer.directory.get(hosts[0]).__class__(
            node_id=victim, incarnation=1
        )
        observer._ctx.informer.apply_ops([UpdateOp("add", victim, 1, stale)], via=hosts[0])
        assert victim in observer.view()  # certificate lapsed

    def test_direct_heartbeat_clears_tombstone(self):
        net, hosts, nodes = make(1, 4)
        net.run(until=12.0)
        victim = hosts[2]
        nodes[victim].stop()
        net.crash_host(victim)
        net.run(until=25.0)
        observer = nodes[hosts[1]]
        assert victim in observer._ctx.tombstones
        net.recover_host(victim)
        nodes[victim].start()
        net.run(until=30.0)
        assert victim not in observer._ctx.tombstones
        assert victim in observer.view()


class TestIncarnationRefutation:
    def test_node_bumps_incarnation_on_rumor_of_own_death(self):
        net, hosts, nodes = make(1, 4)
        net.run(until=12.0)
        target = nodes[hosts[2]]
        before = target.incarnation
        target._ctx.informer.apply_ops(
            [UpdateOp("remove", hosts[2], before)], via=hosts[0]
        )
        assert target.incarnation == before + 1

    def test_stale_rumor_does_not_bump(self):
        net, hosts, nodes = make(1, 4)
        net.run(until=12.0)
        target = nodes[hosts[2]]
        before = target.incarnation
        target._ctx.informer.apply_ops(
            [UpdateOp("remove", hosts[2], before - 1)], via=hosts[0]
        )
        assert target.incarnation == before

    def test_false_removal_heals_cluster_wide(self):
        """A wrong remove-update about a live node gets refuted and every
        view returns to the full cluster."""
        net, hosts, nodes = make(2, 5)
        net.run(until=15.0)
        live = hosts[8]  # ordinary member, network 1
        # Some relay point wrongly announces its death.
        announcer = nodes[hosts[0]]
        rec = announcer.directory.get(live)
        announcer._ctx.informer.originate([UpdateOp("remove", live, rec.incarnation)])
        net.run(until=35.0)
        for h, node in nodes.items():
            assert live in node.view(), h


class TestPendingSyncRetry:
    def test_sync_retries_until_response(self):
        """With brutal loss on the sync path, bootstrap still completes."""
        net, hosts, nodes = make(2, 5, seed=9, loss=0.30)
        net.run(until=60.0)
        views = [len(n.view()) for n in nodes.values()]
        assert views == [10] * 10

    def test_pending_cleared_for_dead_peer(self):
        net, hosts, nodes = make(2, 5)
        net.run(until=15.0)
        leader = nodes[hosts[0]]
        dead = hosts[1]
        leader._maybe_sync(dead)  # will never answer
        nodes[dead].stop()
        net.crash_host(dead)
        net.run(until=30.0)
        assert dead not in leader._ctx.pending_syncs


class TestBootstrapAnnounceWindow:
    def test_window_set_on_leadership(self):
        net, hosts, nodes = make(1, 4)
        net.run(until=12.0)
        leader = nodes[min(hosts)]
        assert leader.is_leader(0)
        cfg = leader.config
        expected_span = cfg.tombstone_quarantine + 2 * cfg.min_sync_interval
        assert leader._ctx.bootstrap_announce_until > 0
        assert leader._ctx.bootstrap_announce_until <= 12.0 + expected_span

    def test_members_recover_collateral_removals_after_failover(self):
        """Covered end-to-end by the leader+backup death test; here we
        check the mechanism directly: a fresh leader's sync re-announces
        records that are not new to it."""
        net, hosts, nodes = make(3, 6, seed=13)
        net.run(until=15.0)
        leader = nodes[hosts[6]].leader_of(0)
        backup = nodes[leader]._ctx.groups[0].my_backup
        for v in {leader, backup}:
            nodes[v].stop()
            net.crash_host(v)
        net.run(until=70.0)
        expect = sorted(set(hosts) - {leader, backup})
        for h in expect:
            assert nodes[h].view() == expect, h
