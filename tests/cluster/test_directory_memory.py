"""Formation memory as a count: GC-tracked objects per node, O(N) not O(N²).

Every node holds the whole directory, so N nodes hold N² entries.  The
directory stores them as dict slots and list cells, which the cyclic
collector does not track; a per-entry object would add N² tracked
objects, and every full collection would walk them.  Counting tracked
objects instead of reading RSS keeps the gate independent of the
machine.
"""

import gc

from repro.core import HierarchicalNode
from repro.core.config import HierarchicalConfig
from repro.net import Network
from repro.net.builders import build_router_tree
from repro.protocols import deploy
from repro.sim.trace import Trace


def formation(branching):
    """Deploy ``branching`` × 30 hosts and run to t=25.

    Returns (nodes with a complete view, kernel events, growth of the
    tracked-object count across deploy + formation, hosts).
    """
    topo, hosts = build_router_tree(2, branching, hosts_per_leaf=30)
    # The ledger's configuration; a retaining trace would add one tracked
    # record per member_up, itself N².
    net = Network(topo, seed=1, trace=Trace(retain=False))
    gc.collect()
    before = len(gc.get_objects())
    nodes = deploy(HierarchicalNode, net, hosts, config=HierarchicalConfig(max_ttl=7))
    net.run(until=25.0)
    gc.collect()
    grown = len(gc.get_objects()) - before
    everyone = set(hosts)
    complete = sum(set(n.view()) == everyone for n in nodes.values())
    return complete, net.sim.events_executed, grown, len(hosts)


class TestFormationMemory:
    def test_tracked_objects_grow_linearly_in_nodes(self):
        complete, events, grown, n = formation(10)
        assert n == 300 and complete == 300
        # What this run executed when every entry was an object of its
        # own; the table changed no protocol decision.
        assert events == 24839
        # One object per entry measured 143,416 here (478 per node); the
        # flat table measures 53,763 (179 per node) on CPython 3.11.
        per_node = grown / n
        assert grown <= 200 * n
        # Half the leaves, the same leaf groups: per-node cost is flat
        # (178.9 per node at 150 nodes; 327.8 with per-entry objects).
        complete, _events, grown, n = formation(5)
        assert n == 150 and complete == 150
        assert abs(grown / n - per_node) <= 0.2 * per_node
