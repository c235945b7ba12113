"""The sharded network's seams: what it inherits and what it adds.

``ShardNetwork`` is a plain ``Network`` whose fabrics deliver inside the
sender's segment at send time and turn everything else into barrier
descriptors.  These tests drive one shard by hand (send, take the
outbox, evaluate it) on a two-segment switched cluster.
"""

import pytest

from repro.net.builders import build_switched_cluster
from repro.net.multicast import MulticastFabric
from repro.net.network import Network
from repro.net.transport import UnicastTransport
from repro.shard.netshard import ShardNetwork
from repro.shard.partition import ShardMap


def make_net(shards=1, shard_id=0, **kwargs):
    topo, hosts = build_switched_cluster(2, 3)
    net = ShardNetwork(topo, ShardMap.build(topo, shards), shard_id, **kwargs)
    net.sim.set_root((0,))
    return net, hosts


def exchange(net):
    """One barrier, by hand: everything sent so far is evaluated."""
    net.evaluate(sorted(net.take_outbox(), key=lambda d: d.sort_key()))


def test_is_a_network_running_the_plain_fabrics():
    net, _hosts = make_net()
    assert isinstance(net, Network)
    assert isinstance(net.multicast_fabric, MulticastFabric)
    assert isinstance(net.transport, UnicastTransport)
    # Membership, binding, delivery and the fault-plan install are not
    # re-implemented: they are the very functions of repro.net.
    for cls, base, names in (
        (type(net.multicast_fabric), MulticastFabric,
         ("subscribe", "unsubscribe", "unsubscribe_all", "_deliver_batch", "_deliver_planned")),
        (type(net.transport), UnicastTransport, ("bind", "unbind", "unbind_all", "_deliver")),
        (ShardNetwork, Network,
         ("subscribe", "multicast", "bind", "unicast", "set_fault_plan", "ensure_fault_plan")),
    ):
        for name in names:
            assert getattr(cls, name) is getattr(base, name), name


def test_multicast_halves_partition_the_ttl_scope():
    net, hosts = make_net()
    got = []
    for host in hosts:
        net.subscribe("c", host, lambda p, host=host: got.append((net.now, host)))
    # TTL 1 is the sender's segment: delivered at send time, nothing filed.
    assert net.multicast(hosts[0], "c", ttl=1, kind="k", payload=None, size=10) == 2
    assert net.outbox == []
    net.run()
    assert sorted(h for _t, h in got) == hosts[1:3]
    # TTL 2 crosses the router: same-segment receivers now, the other
    # segment only once the descriptor has been through a barrier.
    del got[:]
    assert net.multicast(hosts[0], "c", ttl=2, kind="k", payload=None, size=10) == 2
    assert len(net.outbox) == 1
    net.run()
    assert sorted(h for _t, h in got) == hosts[1:3]
    exchange(net)
    net.run()
    assert sorted(h for _t, h in got) == hosts[1:]
    # One event per delay bucket in each half, not one per receiver.
    assert net.sim.events_executed == 3


def test_barrier_half_reaches_only_locally_owned_receivers():
    sender, hosts = make_net(shards=2, shard_id=0)
    receiver, _ = make_net(shards=2, shard_id=1)
    got = []
    receiver.subscribe("c", hosts[4], got.append)
    sender.multicast(hosts[0], "c", ttl=2, kind="k", payload="x", size=10)
    descriptors = sender.take_outbox()
    sender.evaluate(descriptors)  # owns no receiver outside the sender's segment
    sender.run()
    receiver.evaluate(descriptors)
    receiver.run()
    assert [p.payload for p in got] == ["x"]
    assert sender.sim.events_executed == 0 and receiver.sim.events_executed == 1


def test_unicast_same_segment_is_immediate_cross_segment_waits():
    net, hosts = make_net()
    got = []
    for host in hosts:
        net.bind(host, "membership", lambda p, host=host: got.append(host))
    assert net.unicast(hosts[0], hosts[1], kind="k", payload=None, size=10)
    assert net.outbox == []
    assert net.unicast(hosts[0], hosts[3], kind="k", payload=None, size=10)
    assert len(net.outbox) == 1
    net.run()
    assert got == [hosts[1]]
    exchange(net)
    net.run()
    assert got == [hosts[1], hosts[3]]
    # An unknown destination is the plain transport's "unroutable".
    assert not net.unicast(hosts[0], "nowhere", kind="k", payload=None, size=10)


def test_downed_sender_files_no_descriptor():
    net, hosts = make_net()
    net.crash_host(hosts[0])
    assert net.multicast(hosts[0], "c", ttl=2, kind="k", payload=None, size=10) == 0
    assert not net.unicast(hosts[0], hosts[3], kind="k", payload=None, size=10)
    assert net.outbox == []


def test_loss_draws_come_from_the_destination_segments_stream():
    net, hosts = make_net(seed=5, loss_rate=0.5)
    for host in hosts:
        net.subscribe("c", host, lambda p: None)
    seg0 = net.rng.stream("shard.loss.0").getstate()
    seg1 = net.rng.stream("shard.loss.1").getstate()
    net.multicast(hosts[0], "c", ttl=2, kind="k", payload=None, size=10)
    assert net.rng.stream("shard.loss.0").getstate() != seg0
    assert net.rng.stream("shard.loss.1").getstate() == seg1
    exchange(net)
    assert net.rng.stream("shard.loss.1").getstate() != seg1


def test_virtual_addresses_stay_unsupported():
    net, hosts = make_net()
    with pytest.raises(NotImplementedError):
        net.transport.bind_address("vip", hosts[0])


def test_only_the_owner_records_a_crash_and_shard_zero_a_device_failure():
    owner, hosts = make_net(shards=2, shard_id=0)
    other, _ = make_net(shards=2, shard_id=1)
    for net in (owner, other):
        net.crash_host(hosts[0])
        net.recover_host(hosts[0])
        net.fail_device("dc0-sw1")
        net.recover_device("dc0-sw1")
        assert net.topo.is_up(hosts[0]) and net.topo.is_up("dc0-sw1")
    assert [r.kind for r in owner.trace.records()] == [
        "host_crashed", "host_recovered", "device_failed", "device_recovered",
    ]
    assert other.trace.records() == []
