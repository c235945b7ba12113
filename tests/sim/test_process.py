"""The completion :class:`Event` resumed by the discrete-event kernel.

The event lives in ``repro.runtime``; these cases pin its ordering on
the simulator's runtime, where virtual time makes the instants exact.
The port contract suite covers the same handle on both adapters.
"""

from repro.net.builders import build_switched_cluster
from repro.net.network import Network
from repro.runtime import Event
from repro.runtime.sim import SimRuntime


def _sim_runtime():
    topo, hosts = build_switched_cluster(1, 2)
    net = Network(topo, seed=3)
    runtime = SimRuntime(net, hosts[0])
    runtime.activate()
    return net, runtime


def test_event_multiple_waiters():
    net, runtime = _sim_runtime()
    ev = Event(runtime)
    seen = []
    ev._add_waiter(lambda value: seen.append(("a", runtime.now, value)))
    ev._add_waiter(lambda value: seen.append(("b", runtime.now, value)))
    runtime.call_once(1.0, ev.succeed, 7)
    net.run(until=2.0)
    assert seen == [("a", 1.0, 7), ("b", 1.0, 7)]  # registration order, via the queue


def test_succeed_does_not_reenter_waiters_synchronously():
    net, runtime = _sim_runtime()
    ev = Event(runtime)
    seen = []
    ev._add_waiter(seen.append)
    ev.succeed("queued")
    assert seen == [] and ev.triggered
    net.run(until=1.0)
    assert seen == ["queued"]
