"""Randomized churn: the protocol converges after ANY failure schedule.

Hypothesis drives small clusters through random sequences of crash /
recover / graceful-leave events; after quiescence every survivor's view
must equal the ground-truth live set exactly (completeness AND accuracy),
and the hierarchy invariants must hold.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import InvariantChecker
from repro.core import HierarchicalNode
from repro.net import Network
from repro.net.builders import build_switched_cluster
from repro.protocols import deploy


@st.composite
def churn_schedules(draw):
    """(seed, [(at, action, host_index)]) with staggered times."""
    seed = draw(st.integers(min_value=0, max_value=50))
    n_events = draw(st.integers(min_value=1, max_value=4))
    events = []
    t = 15.0
    for _ in range(n_events):
        t += draw(st.floats(min_value=2.0, max_value=10.0))
        action = draw(st.sampled_from(["crash", "recover", "leave"]))
        idx = draw(st.integers(min_value=0, max_value=7))
        events.append((t, action, idx))
    return seed, events


class TestRandomChurn:
    @given(churn_schedules())
    @settings(max_examples=20, deadline=None)
    def test_views_converge_after_any_schedule(self, schedule):
        seed, events = schedule
        topo, hosts = build_switched_cluster(2, 4)
        net = Network(topo, seed=seed)
        nodes = deploy(HierarchicalNode, net, hosts)
        alive = {h: True for h in hosts}

        def apply(action, host):
            if action == "crash" and alive[host]:
                nodes[host].stop()
                net.crash_host(host)
                alive[host] = False
            elif action == "leave" and alive[host]:
                nodes[host].leave()
                net.crash_host(host)
                alive[host] = False
            elif action == "recover" and not alive[host]:
                net.recover_host(host)
                nodes[host].start()
                alive[host] = True

        last = 15.0
        for at, action, idx in events:
            net.sim.call_at(at, apply, action, hosts[idx])
            last = at
        # Quiesce long enough for worst-case re-elections, tombstone
        # quarantines and backstop purges to settle.
        net.run(until=last + 45.0)

        live = sorted(h for h in hosts if alive[h])
        for h in live:
            assert nodes[h].view() == live, (h, nodes[h].view(), live)
        assert InvariantChecker(net, nodes).check_hierarchy() == []

    @given(st.integers(min_value=0, max_value=30))
    @settings(max_examples=10, deadline=None)
    def test_kill_everyone_but_one(self, seed):
        topo, hosts = build_switched_cluster(2, 3)
        net = Network(topo, seed=seed)
        nodes = deploy(HierarchicalNode, net, hosts)
        net.run(until=15.0)
        survivor = hosts[seed % len(hosts)]
        t = 16.0
        for h in hosts:
            if h != survivor:
                net.sim.call_at(t, nodes[h].stop)
                net.sim.call_at(t, net.crash_host, h)
                t += 1.0
        net.run(until=t + 40.0)
        assert nodes[survivor].view() == [survivor]
        assert nodes[survivor].is_leader(0)
