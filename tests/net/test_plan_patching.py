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
  costs one route query per other sender, not a re-plan of every key
  (a count, so the gate holds on any machine).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.failures import FailureSchedule
from repro.metrics.experiment import make_scheme_cluster
from repro.net import Network
from repro.net.builders import build_router_tree, build_switched_cluster
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


class TestReplanningCost:
    """Route queries around one crash/recover pair on the 5 x 20 testbed.

    Before plans were patched, the crash and the recovery each moved
    ``Topology.version`` and every sender re-planned ``base:L0`` against
    all 100 hosts: 19,642 ``mc_route`` calls for this one pair.  Now the
    only queries are the recovered node's re-join, one per other sender.
    """

    VICTIM = "dc0-n2-h10"  # leads no group at t=25 on seed 31

    def test_crash_and_recovery_cost_one_query_per_sender(self):
        net, hosts, nodes = make_scheme_cluster("hierarchical", 5, 20, seed=31, loss_rate=0.02)
        net.run(until=25.0)
        assert not nodes[self.VICTIM].is_leader(0)
        calls = []
        route = net.topo.mc_route

        def counted(src, dst):
            calls.append((src, dst))
            return route(src, dst)

        net.topo.mc_route = counted
        net.run(until=29.0)
        assert calls == []  # a quiet window re-plans nothing

        schedule = FailureSchedule(net)
        schedule.register_stack(self.VICTIM, nodes[self.VICTIM])
        schedule.crash_node_at(30.1, self.VICTIM)
        schedule.recover_node_at(44.1, self.VICTIM)
        net.run(until=60.0)
        assert len(calls) <= 100
        assert {dst for _src, dst in calls} == {self.VICTIM}
        # Behaviour is unchanged by patching: both numbers are what the
        # fabric that rebuilt every plan produced for this run (18,898
        # kernel events from t=0 to t=60, all 100 views complete).
        assert net.sim.events_executed == 18898
        everyone = set(hosts)
        assert sum(set(n.view()) == everyone for n in nodes.values()) == 100
