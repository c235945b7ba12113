"""Delivery plans are patched in place and always equal a rebuild.

The multicast fabric keeps its cached ``(channel, src, ttl)`` plans
across subscription changes and leaf-host up/down flips, patching the
one channel a change touches; only a ``Topology.route_version`` move
drops the cache.  Pinned here:

* after every operation of a random interleaving — subscribe,
  re-subscribe of the same handler, handler replacement, leave and
  re-join, unsubscribe, ``unsubscribe_all``, ``crash_host`` /
  ``recover_host``, ``set_up`` on hosts, switches and routers, link
  add/remove, sends at TTL 1–4, plan reads and clock advances — every
  cached plan (recipients and delay buckets) equals a fresh build from
  the subscriptions and the plan's route query, on the plain fabric and
  on the sharded fabric's segment-scoped one;
* a lossy twin whose cache is cleared before every op draws the same
  ``net.loss`` stream and delivers the same ``(time, host, packet)``
  list, so in-flight deliveries cannot tell a patched plan from a
  rebuilt one;
* a crash/recover pair of an ordinary node on the paper's 5 x 20 testbed
  costs a route query only for the senders whose TTL reaches the node,
  not a re-plan of every key;
* a cold formation asks about each sender's TTL reach, not about every
  subscriber of the cluster-wide channel: about 20 route queries per
  node at 100 and at 200 nodes, not N;
* the same formation writes its first sights one update message at a
  time: no more ``Directory.insert_new`` calls than applied op groups;
* its bootstrap floods follow the relay rule, so a node applies at most
  2.2 add ops per directory entry it ends with;
* its newcomer announcements follow the relay rule too, so it builds at
  most 4 update multicasts per node.

The last five are counts, so the gates hold on any machine.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.directory import Directory
from repro.cluster.failures import FailureSchedule
from repro.core import HierarchicalNode
from repro.core.config import HierarchicalConfig
from repro.core.roles.informer import Informer
from repro.core.updates import UpdateManager
from repro.metrics.experiment import make_scheme_cluster
from repro.net import Network
from repro.net.builders import build_router_tree, build_switched_cluster
from repro.protocols.base import deploy
from repro.shard.netshard import ShardNetwork
from repro.shard.partition import ShardMap

#: One profile for every property in this module: derandomised so tier-1
#: is reproducible, no deadline because the box drifts in speed.
SETTINGS = settings(derandomize=True, deadline=None, max_examples=100)

CHANNELS = ("a", "b")
TTLS = (1, 2, 3, 4)


def switched():
    """Two three-host segments behind one router, plus three spare links."""
    topo, hosts = build_switched_cluster(2, 3)
    extra = [
        (hosts[0], "dc0-sw1"),  # multi-homes a host: it stops being a leaf
        ("dc0-sw0", "dc0-sw1"),  # merges the two segments
        (hosts[1], hosts[4]),  # host-to-host: neither end is a leaf
    ]
    return topo, hosts, extra


def tree():
    """A depth-2 router tree (two leaf routers, two hosts each)."""
    topo, hosts = build_router_tree(depth=2, branching=2, hosts_per_leaf=2)
    extra = [
        ("dc0-sw0", "dc0-sw1"),
        (hosts[0], "dc0-sw1"),
        ("dc0-r1", "dc0-r2"),
    ]
    return topo, hosts, extra


TOPOLOGIES = {"switched": switched, "tree": tree}

_host = st.integers(0, 5)
_channel = st.sampled_from(CHANNELS)
_send = st.tuples(st.just("send"), _channel, _host, st.sampled_from(TTLS))
_round = st.tuples(st.just("round"), _channel, st.sampled_from(TTLS))
_swap = st.tuples(st.just("swap"), _channel, _host)
_rejoin = st.tuples(st.just("rejoin"), _channel, _host)
_flip_host = st.tuples(st.just("flip_host"), _host)
_restart = st.tuples(st.just("restart"), _host)
_run = st.tuples(st.just("run"), st.sampled_from((0.00005, 0.0003, 0.01)))
#: Route changes drop every plan, so they are drawn rarely (the patches
#: are what is under test); restarts outweigh crashes so that most hosts
#: stay up and subscribed.
OPS = st.lists(
    st.one_of(
        _round, _swap, _send, _rejoin, _flip_host, _restart, _run,
        _round, _swap, _send, _restart, _run,
        st.tuples(st.just("resubscribe"), _channel, _host),
        st.tuples(st.just("unsubscribe"), _channel, _host),
        st.tuples(st.just("unsubscribe_all"), _host),
        st.tuples(st.just("crash"), _host),
        st.tuples(st.just("read_all")),
        st.tuples(st.just("set_up"), st.integers(0, 10), st.booleans()),
        st.tuples(st.just("toggle_link"), st.integers(0, 2)),
    ),
    min_size=20,
    max_size=60,
)


class World:
    """One network over one of the small topologies, driven by op tuples."""

    def __init__(self, shape, sharded=False, loss_rate=0.0, seed=5):
        topo, self.hosts, self.extra = TOPOLOGIES[shape]()
        if sharded:
            smap = ShardMap.build(topo, 1)
            self.net = ShardNetwork(topo, smap, 0, seed=seed, loss_rate=loss_rate)
            self.net.sim.set_root((0,))
        else:
            self.net = Network(topo, seed=seed, loss_rate=loss_rate)
        self.topo = topo
        self.fabric = self.net.multicast_fabric
        self.devices = list(topo.devices())
        self.linked = set()
        self.sent = 0
        #: (time, receiving host, handler index, send number) per delivery.
        self.log = []
        self.handlers = {
            (host, k): self._sink(host, k) for host in self.hosts for k in (0, 1)
        }

    def _sink(self, host, k):
        def handler(packet):
            self.log.append((self.net.now, host, k, packet.payload))

        return handler

    def host(self, i):
        return self.hosts[i % len(self.hosts)]

    def apply(self, op):
        net, name = self.net, op[0]
        if name == "swap":  # to the host's other handler, or join with one
            _, channel, h = op
            host = self.host(h)
            k = int(self.fabric._subs[channel].get(host) is self.handlers[(host, 0)])
            net.subscribe(channel, host, self.handlers[(host, k)])
        elif name == "rejoin":  # to the tail of the subscription order
            _, channel, h = op
            net.unsubscribe(channel, self.host(h))
            net.subscribe(channel, self.host(h), self.handlers[(self.host(h), 0)])
        elif name == "resubscribe":
            _, channel, h = op
            current = self.fabric._subs[channel].get(self.host(h))
            if current is not None:
                net.subscribe(channel, self.host(h), current)
        elif name == "unsubscribe":
            net.unsubscribe(op[1], self.host(op[2]))
        elif name == "unsubscribe_all":
            self.fabric.unsubscribe_all(self.host(op[1]))
        elif name == "crash":
            net.crash_host(self.host(op[1]))
        elif name == "restart":  # recover_host, then the stack re-joins
            host = self.host(op[1])
            net.recover_host(host)
            for channel in CHANNELS:
                net.subscribe(channel, host, self.handlers[(host, 0)])
        elif name == "flip_host":  # direct, so the host may still be subscribed
            host = self.host(op[1])
            self.topo.set_up(host, not self.topo.is_up(host))
        elif name == "set_up":
            self.topo.set_up(self.devices[op[1] % len(self.devices)], op[2])
        elif name == "toggle_link":
            a, b = self.extra[op[1]]
            if (a, b) in self.linked:
                self.topo.remove_link(a, b)
                self.linked.discard((a, b))
            else:
                self.topo.add_link(a, b, latency=0.00007)
                self.linked.add((a, b))
        elif name == "send":
            _, channel, h, ttl = op
            self.sent += 1
            net.multicast(self.host(h), channel, ttl, "x", self.sent, 10)
        elif name == "round":  # every host sends once, heartbeat style
            for h in range(len(self.hosts)):
                self.apply(("send", op[1], h, op[2]))
        elif name == "read_all":
            warm(self)
        elif name == "run":
            net.run(until=net.now + op[1])


def fresh_recipients(fabric, channel, src, ttl, upto):
    """What a rebuild from the subscriptions yields, up to ``upto`` joins."""
    route = fabric._plan_route()
    joined = fabric._joined[channel]
    out = []
    for host, handler in fabric._subs.get(channel, {}).items():
        if host == src or joined[host] > upto:
            continue
        hops, lat = route(src, host)
        if hops <= ttl:
            out.append((host, handler, lat + fabric.proc_delay))
    return out


def grouped(recipients):
    """Delay buckets as ``(delay, pairs, hosts, handlers)``, first-seen order."""
    by_delay = {}
    for host, handler, delay in recipients:
        by_delay.setdefault(delay, []).append((host, handler))
    return [
        (delay, pairs, [h for h, _ in pairs], [f for _, f in pairs])
        for delay, pairs in by_delay.items()
    ]


def assert_plans_exact(world):
    """Every cached plan a send could be served equals a rebuild.

    A plan reflects the subscriptions that joined up to its own
    ``sub_version`` (later ones are evaluated lazily, on its next read).
    A down sender's plans are kept for its return and never served.
    """
    fabric, topo = world.fabric, world.topo
    by_channel = {
        (channel, src, ttl): plan
        for channel, plans in fabric._channel_plans.items()
        for (src, ttl), plan in plans.items()
    }
    assert by_channel == fabric._plans
    for (channel, src, ttl), plan in fabric._plans.items():
        assert plan.sub_version <= fabric._sub_version[channel]
        if not topo.is_up(src):
            continue
        expected = fresh_recipients(fabric, channel, src, ttl, plan.sub_version)
        assert plan.recipients == expected, (channel, src, ttl)
        assert [b[:4] for b in plan.buckets] == grouped(expected), (channel, src, ttl)


def assert_served_plans_exact(world):
    """Reading every cached key brings it current and equal to a rebuild."""
    fabric = world.fabric
    for channel, src, ttl in list(fabric._plans):
        if not world.topo.is_up(src):
            continue
        recipients, buckets = fabric._plan(channel, src, ttl)
        expected = fresh_recipients(fabric, channel, src, ttl, fabric._sub_version[channel])
        assert recipients == expected
        assert [b[:4] for b in buckets] == grouped(expected)


def warm(world):
    """Read every (channel, host, TTL) plan, down senders' included.

    ``send`` never reads a down sender's plan; reading it anyway must not
    leave a wrong one behind for when the sender comes back.
    """
    for channel in CHANNELS:
        for host in world.hosts:
            for ttl in TTLS:
                world.fabric._plan(channel, host, ttl)


class TestPlansEqualARebuild:
    @given(ops=OPS, shape=st.sampled_from(sorted(TOPOLOGIES)), sharded=st.booleans())
    @SETTINGS
    def test_after_every_operation(self, ops, shape, sharded):
        world = World(shape, sharded=sharded)
        # Everyone on both channels first, so the ops have plans to patch.
        for channel in CHANNELS:
            for host in world.hosts:
                world.net.subscribe(channel, host, world.handlers[(host, 0)])
        warm(world)
        for op in ops:
            world.apply(op)
            if world.fabric._plans_route_version != world.topo.route_version:
                warm(world)  # the route change dropped every plan
            assert_plans_exact(world)
        assert_served_plans_exact(world)


class TestLossyTwin:
    @given(ops=OPS, shape=st.sampled_from(sorted(TOPOLOGIES)), lossy=st.booleans())
    @SETTINGS
    def test_same_draws_and_deliveries_as_a_rebuild_per_send(self, ops, shape, lossy):
        rate = 0.3 if lossy else 0.0
        patched, rebuilt = World(shape, loss_rate=rate), World(shape, loss_rate=rate)
        for world in (patched, rebuilt):
            for channel in CHANNELS:
                for h in range(len(world.hosts)):
                    world.apply(("rejoin", channel, h))
        warm(patched)  # every later send is served a patched plan
        for op in ops:
            # Cleared before every op, so no patch ever reaches a plan of
            # the reference: each send of it is a fresh build.
            rebuilt.fabric._plans.clear()
            rebuilt.fabric._channel_plans.clear()
            patched.apply(op)
            rebuilt.apply(op)
            if patched.fabric._plans_route_version != patched.topo.route_version:
                warm(patched)
            assert patched.log == rebuilt.log
            if lossy:
                assert patched.fabric.loss_rng.getstate() == rebuilt.fabric.loss_rng.getstate()
        for world in (patched, rebuilt):
            world.net.run()
        assert patched.log == rebuilt.log
        rx = [w.net.meter.packets(direction="rx") for w in (patched, rebuilt)]
        assert rx[0] == rx[1]


def count_route_queries(net):
    """Wrap the network topology's ``mc_route``; returns the call log."""
    calls = []
    route = net.topo.mc_route

    def counted(src, dst):
        calls.append((src, dst))
        return route(src, dst)

    net.topo.mc_route = counted
    return calls


class TestReplanningCost:
    """Route queries around one crash/recover pair on the 5 x 20 testbed.

    Before plans were patched, the crash and the recovery each moved
    ``Topology.version`` and every sender re-planned ``base:L0`` against
    all 100 hosts: 19,642 ``mc_route`` calls for this one pair.  With
    patching, the only queries were the recovered node's re-join, one per
    other sender (99).  Now that plans take their candidates from the
    sender's TTL reach, only the senders whose reach holds the node ask:
    its own segment's 19 on ``base:L0``.
    """

    VICTIM = "dc0-n2-h10"  # leads no group at t=25 on seed 31

    def test_crash_and_recovery_cost_one_query_per_sender(self):
        net, hosts, nodes = make_scheme_cluster("hierarchical", 5, 20, seed=31, loss_rate=0.02)
        net.run(until=25.0)
        assert not nodes[self.VICTIM].is_leader(0)
        calls = count_route_queries(net)
        net.run(until=29.0)
        assert calls == []  # a quiet window re-plans nothing

        schedule = FailureSchedule(net)
        schedule.register_stack(self.VICTIM, nodes[self.VICTIM])
        schedule.crash_node_at(30.1, self.VICTIM)
        schedule.recover_node_at(44.1, self.VICTIM)
        net.run(until=60.0)
        assert len(calls) <= 20
        assert {dst for _src, dst in calls} == {self.VICTIM}
        # Behaviour is unchanged by patching: both numbers are what the
        # fabric that rebuilt every plan produced for this run (18,898
        # kernel events from t=0 to t=60, all 100 views complete; 18,903
        # since climbs into empty levels stopped re-announcing, 18,775
        # since the bootstrap flood follows the relay rule, 18,859 since
        # the piggyback keeps to the bytes of its depth's small updates,
        # 18,818 since the newcomer announcement follows the relay rule).
        assert net.sim.events_executed == 18818
        everyone = set(hosts)
        assert sum(set(n.view()) == everyone for n in nodes.values()) == 100


class TestFormationPlanCost:
    """Route queries of a cold formation on a depth-2 router tree.

    Every node subscribes to the cluster-wide ``base:L0`` channel, whose
    TTL-1 sends reach one 20-host segment.  When plans evaluated every
    subscriber, each sender asked about all N of them: 9,960 queries at
    100 nodes and 40,070 at 200, N per node.  Taken from the sender's
    TTL reach, the count is about the segment size per node at both
    sizes (1,920 and 3,890 when this gate was set).
    """

    @pytest.mark.parametrize(
        "branching, events", [(5, 7942), (10, 15987)], ids=["100_nodes", "200_nodes"]
    )
    def test_route_queries_per_node_do_not_grow_with_n(self, branching, events):
        topo, hosts = build_router_tree(2, branching, hosts_per_leaf=20)
        net = Network(topo, seed=1)
        calls = count_route_queries(net)
        nodes = deploy(HierarchicalNode, net, hosts, config=HierarchicalConfig(max_ttl=7))
        net.run(until=25.0)
        assert len(calls) <= 25 * len(hosts)
        # Behaviour is what the fabric that walked every subscriber
        # produced: the same kernel events (8,094 and 17,039 before climbs
        # into empty levels stopped re-announcing, 8,066 and 16,986 before
        # the bootstrap flood followed the relay rule, 8,042 and 16,887
        # before the newcomer announcement did), and every view complete.
        assert net.sim.events_executed == events
        everyone = set(hosts)
        assert all(set(node.view()) == everyone for node in nodes.values())


class TestFormationInsertRuns:
    """Directory writes of the same cold formations, counted in calls.

    Each applied op group writes its run of first sights with one
    ``insert_new`` (a non-add op in the group splits the run).  When
    every first sight was inserted on its own, the calls were one per
    directory entry; the entries are N² while the op groups grow far
    slower.
    """

    @pytest.mark.parametrize(
        "branching, events", [(5, 7942), (10, 15987)], ids=["100_nodes", "200_nodes"]
    )
    def test_insert_calls_do_not_exceed_op_groups(self, monkeypatch, branching, events):
        counts = {"insert_new": 0, "apply_ops": 0}

        def counting(name, fn):
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(Directory, "insert_new", counting("insert_new", Directory.insert_new))
        monkeypatch.setattr(Informer, "apply_ops", counting("apply_ops", Informer.apply_ops))
        topo, hosts = build_router_tree(2, branching, hosts_per_leaf=20)
        net = Network(topo, seed=1)
        nodes = deploy(HierarchicalNode, net, hosts, config=HierarchicalConfig(max_ttl=7))
        net.run(until=25.0)
        assert net.sim.events_executed == events
        everyone = set(hosts)
        assert all(set(node.view()) == everyone for node in nodes.values())
        entries = sum(len(node.directory) for node in nodes.values())
        assert 0 < counts["insert_new"] <= counts["apply_ops"] < entries


class TestFormationFloodCost:
    """Add ops applied during the same cold formations, per N².

    A fresh leader re-announces its merged bootstrap snapshot.  Sent on
    every channel, the flood went back to the group of the snapshot's
    sender too, which had just said all of it: 2.70 and 3.02 applied add
    ops per final directory entry at 100 and 200 nodes (update rx bytes
    101.8 MB at 200).  Sent by the relay rule of Fig. 5 (every channel
    but the incoming one, which hears only its leader's echo): 1.96 and
    1.89 (59.9 MB).
    """

    @pytest.mark.parametrize("branching", [5, 10], ids=["100_nodes", "200_nodes"])
    def test_applied_adds_per_entry_stay_under_a_bound(self, monkeypatch, branching):
        adds = []
        apply_ops = Informer.apply_ops

        def counted(self, ops, via):
            adds.append(sum(1 for op in ops if op.op == "add"))
            return apply_ops(self, ops, via)

        monkeypatch.setattr(Informer, "apply_ops", counted)
        topo, hosts = build_router_tree(2, branching, hosts_per_leaf=20)
        net = Network(topo, seed=1)
        nodes = deploy(HierarchicalNode, net, hosts, config=HierarchicalConfig(max_ttl=7))
        net.run(until=25.0)
        everyone = set(hosts)
        assert all(set(node.view()) == everyone for node in nodes.values())
        assert sum(adds) <= 2.2 * len(hosts) ** 2


class TestAnnouncementCopies:
    """Update multicasts built in the same cold formations, per node.

    A relay point announces each newly heard peer to its other groups.
    When every relay point originated that add on every channel it
    joined, the K participants of a level-1 channel each re-announced
    the newcomer there, so every level-0 group received K copies: 4.31
    and 15.83 ``UpdateManager.build`` calls per node at 100 and 200
    nodes, growing with N.  Sent by the relay rule (the channel the peer
    was heard on gets only its leader's echo): 1.71 and 3.23.
    """

    @pytest.mark.parametrize("branching", [5, 10], ids=["100_nodes", "200_nodes"])
    def test_update_builds_per_node_stay_under_a_bound(self, monkeypatch, branching):
        builds = []
        build = UpdateManager.build

        def counted(self, *args, **kwargs):
            builds.append(1)
            return build(self, *args, **kwargs)

        monkeypatch.setattr(UpdateManager, "build", counted)
        topo, hosts = build_router_tree(2, branching, hosts_per_leaf=20)
        net = Network(topo, seed=1)
        nodes = deploy(HierarchicalNode, net, hosts, config=HierarchicalConfig(max_ttl=7))
        net.run(until=25.0)
        everyone = set(hosts)
        assert all(set(node.view()) == everyone for node in nodes.values())
        assert len(builds) <= 4 * len(hosts)


class TestPiggybackBudget:
    """Update bytes received in the cold 200-node formation.

    Each update piggybacks the sender's recent updates on its channel.
    When the piggyback re-sent whole entries, a bootstrap flood or a
    subtree re-announce of up to N records rode along in the next three
    messages: 59.9 MB of update rx bytes.  Kept to the bytes of
    ``piggyback_depth`` one-member updates, the flood goes once: 29.9 MB.
    """

    def test_update_rx_bytes_stay_under_a_bound(self):
        topo, hosts = build_router_tree(2, 10, hosts_per_leaf=20)
        net = Network(topo, seed=1)
        nodes = deploy(HierarchicalNode, net, hosts, config=HierarchicalConfig(max_ttl=7))
        net.run(until=25.0)
        everyone = set(hosts)
        assert all(set(node.view()) == everyone for node in nodes.values())
        assert net.meter.bytes_by_kind("update") <= 36e6
