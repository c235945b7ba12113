"""Formation on randomized topologies: the protocol adapts to anything.

Hypothesis generates random router trees with hosts hung off arbitrary
routers (so group sizes, tree depths and TTL distances all vary), runs the
hierarchical protocol, and checks the paper's guarantees: complete views,
a consistent hierarchy, and failure convergence.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import InvariantChecker
from repro.core import HierarchicalConfig, HierarchicalNode
from repro.net import Network, Topology
from repro.protocols import deploy


@st.composite
def random_cluster(draw):
    """A random connected topology plus a seed."""
    t = Topology()
    n_routers = draw(st.integers(min_value=1, max_value=4))
    for i in range(n_routers):
        t.add_router(f"r{i}")
        if i > 0:
            parent = draw(st.integers(min_value=0, max_value=i - 1))
            t.add_link(f"r{i}", f"r{parent}", latency=0.0002)
    n_segments = draw(st.integers(min_value=1, max_value=4))
    hosts = []
    for s in range(n_segments):
        r = draw(st.integers(min_value=0, max_value=n_routers - 1))
        t.add_switch(f"s{s}")
        t.add_link(f"s{s}", f"r{r}", latency=0.0002)
        for h in range(draw(st.integers(min_value=1, max_value=4))):
            host = f"s{s}h{h}"
            t.add_host(host)
            t.add_link(host, f"s{s}", latency=0.0001)
            hosts.append(host)
    seed = draw(st.integers(min_value=0, max_value=100))
    return t, hosts, seed


class TestRandomTopologies:
    @given(random_cluster())
    @settings(max_examples=15, deadline=None)
    def test_formation_completes_anywhere(self, case):
        topo, hosts, seed = case
        # TTL budget covering the worst random tree (4 routers deep x 2).
        cfg = HierarchicalConfig(max_ttl=9)
        net = Network(topo, seed=seed)
        nodes = deploy(HierarchicalNode, net, hosts, config=cfg)
        # Deep chains elect level by level: give them time proportional to
        # the TTL budget.
        net.run(until=12.0 + 5.0 * cfg.max_level)
        for h, node in nodes.items():
            assert node.view() == sorted(hosts), (h, node.view())
        assert InvariantChecker(net, nodes).check_hierarchy() == []

    @given(random_cluster())
    @settings(max_examples=8, deadline=None)
    def test_failure_converges_anywhere(self, case):
        topo, hosts, seed = case
        if len(hosts) < 2:
            return
        cfg = HierarchicalConfig(max_ttl=9)
        net = Network(topo, seed=seed)
        nodes = deploy(HierarchicalNode, net, hosts, config=cfg)
        warm = 12.0 + 5.0 * cfg.max_level
        net.run(until=warm)
        victim = hosts[seed % len(hosts)]
        nodes[victim].stop()
        net.crash_host(victim)
        net.run(until=warm + 60.0)
        expect = sorted(set(hosts) - {victim})
        for h in expect:
            assert nodes[h].view() == expect, (h, nodes[h].view())
