"""Focused tests of proxy-group election and leader duties."""

from repro.core import HierarchicalNode, MembershipProxy
from repro.net import Network
from repro.net.builders import build_two_datacenters
from repro.protocols import deploy
from repro.runtime import SimRuntime

ADDRS = {"dcA": "vip-A", "dcB": "vip-B"}


def make_proxies(per_dc=3, seed=1):
    topo, dca, dcb = build_two_datacenters(1, 5)
    net = Network(topo, seed=seed)
    nodes = {}
    nodes.update(deploy(HierarchicalNode, net, dca))
    nodes.update(deploy(HierarchicalNode, net, dcb))
    proxies = []
    for dc, hostlist in (("dcA", dca), ("dcB", dcb)):
        for h in hostlist[:per_dc]:
            p = MembershipProxy(
                SimRuntime(net, h), SimRuntime(net, h), dc, ADDRS[dc], ADDRS, nodes[h]
            )
            p.start()
            proxies.append(p)
    return net, nodes, proxies


class TestProxyElection:
    def test_lowest_id_becomes_leader(self):
        net, nodes, proxies = make_proxies()
        net.run(until=12.0)
        for dc in ("dcA", "dcB"):
            group = [p for p in proxies if p.dc == dc]
            leaders = [p for p in group if p.is_leader]
            assert len(leaders) == 1
            assert leaders[0].host == min(p.host for p in group)

    def test_backup_fast_takeover(self):
        net, nodes, proxies = make_proxies()
        net.run(until=12.0)
        leader = next(p for p in proxies if p.dc == "dcA" and p.is_leader)
        backup_host = leader.group.my_backup
        assert backup_host is not None
        leader.stop()
        nodes[leader.host].stop()
        net.crash_host(leader.host)
        net.run(until=24.0)
        new_leader = next(p for p in proxies if p.dc == "dcA" and p.is_leader)
        # The designated backup took over (fast path, no election delay).
        assert new_leader.host == backup_host
        assert net.transport.address_owner("vip-A") == backup_host

    def test_restarted_old_leader_does_not_displace_incumbent(self):
        """Stability: "If there is already a group leader, a node will not
        participate [in] the leader election" — a rejoining lower-ID proxy
        suppresses itself instead of causing leadership churn."""
        net, nodes, proxies = make_proxies()
        net.run(until=12.0)
        leader = next(p for p in proxies if p.dc == "dcA" and p.is_leader)
        old_host = leader.host
        leader.stop()
        nodes[old_host].stop()
        net.crash_host(old_host)
        net.run(until=30.0)
        incumbent = next(p for p in proxies if p.dc == "dcA" and p.is_leader)
        net.recover_host(old_host)
        nodes[old_host].start()
        leader.start()
        net.run(until=55.0)
        leaders = [p for p in proxies if p.dc == "dcA" and p.is_leader]
        assert len(leaders) == 1
        assert leaders[0].host == incumbent.host  # no churn
        assert not leader.is_leader
        assert leader.group.suppressed
        assert net.transport.address_owner("vip-A") == incumbent.host

    def test_single_proxy_dc_leads_itself(self):
        net, nodes, proxies = make_proxies(per_dc=1)
        net.run(until=12.0)
        assert all(p.is_leader for p in proxies)

    def test_follower_does_not_own_address(self):
        net, nodes, proxies = make_proxies()
        net.run(until=12.0)
        for p in proxies:
            if not p.is_leader:
                assert net.transport.address_owner(p.external_addr) != p.host
