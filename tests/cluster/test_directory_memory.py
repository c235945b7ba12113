"""Formation memory as counts: GC-tracked objects per node and bytes per entry.

Every node holds the whole directory, so N nodes hold N² entries.  The
directory stores them as one cell in each of four columns (three lists
and an array), indexed by a node-slot table that every directory on the
network shares; the cyclic collector tracks none of it.  A per-entry
object would add N² tracked objects, and every full collection would
walk them.  Counting tracked objects and container bytes instead of
reading RSS keeps the gates independent of the machine.
"""

import gc
import sys
from functools import lru_cache

from repro.core import HierarchicalNode
from repro.core.config import HierarchicalConfig
from repro.net import Network
from repro.net.builders import build_router_tree
from repro.protocols import deploy
from repro.sim.trace import Trace


@lru_cache(maxsize=None)
def formation(branching):
    """Deploy ``branching`` × 30 hosts and run to t=25.

    Returns (nodes with a complete view, kernel events, growth of the
    tracked-object count across deploy + formation, hosts, bytes of
    entry storage per entry).
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
    return complete, net.sim.events_executed, grown, len(hosts), bytes_per_entry(net, nodes)


def bytes_per_entry(net, nodes):
    """``sys.getsizeof`` of the entry storage over the entries held.

    The storage is each directory's four columns plus, once, the slot
    table they share and the float objects the freshness cells point
    to (the event clock's, shared by every cell written in one event).
    """
    table = net.slot_table
    size = sum(map(sys.getsizeof, (table.index, table.ids, table.holders, table.free)))
    entries = 0
    floats = {}
    for node in nodes.values():
        d = node.directory
        assert d.slot_table is table
        size += sum(map(sys.getsizeof, (d._records, d._relayers, d._fresh, d._order)))
        floats.update((id(f), f) for f in d._fresh)
        entries += len(d)
    return (size + sum(map(sys.getsizeof, floats.values()))) / entries


class TestFormationMemory:
    def test_tracked_objects_grow_linearly_in_nodes(self):
        complete, events, grown, n, _bytes = formation(10)
        assert n == 300 and complete == 300
        # What this run executes (24,839 when every entry was an object
        # of its own, before climbs into empty levels stopped
        # re-announcing; 24,786 before the bootstrap flood followed the
        # relay rule; 24,687 before the newcomer announcement did; the
        # table changed no protocol decision).
        assert events == 23787
        # One object per entry measured 143,416 here (478 per node); the
        # flat table measured 53,763 (179 per node) and the columns over
        # the shared slot table 57,825 (193 per node) on CPython 3.11.
        per_node = grown / n
        assert grown <= 200 * n
        # Half the leaves, the same leaf groups: per-node cost is flat
        # (178.9 per node at 150 nodes; 327.8 with per-entry objects).
        complete, _events, grown, n, _bytes = formation(5)
        assert n == 150 and complete == 150
        assert abs(grown / n - per_node) <= 0.2 * per_node

    def test_entry_storage_fits_in_forty_bytes(self):
        complete, events, _grown, n, per_entry = formation(10)
        assert n == 300 and complete == 300 and events == 23787
        # 54.5 B with a node id -> offset dict and four list cells per
        # entry; 34.0 B as four columns over the shared slot table on
        # CPython 3.11: 8 B a cell, plus the lists' and the array's
        # over-allocation (the table and the floats add 0.2 B).
        assert per_entry <= 40
