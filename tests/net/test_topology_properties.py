"""Property-based tests for topology distances (also across up/down flips)
and the analysis models."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import AllToAllModel, AnalysisParams, GossipModel, HierarchicalModel
from repro.net import Topology, UNREACHABLE


@st.composite
def random_topologies(draw):
    """A random connected device graph: routers in a tree + hosts hung off
    random routers through switches."""
    t = Topology()
    n_routers = draw(st.integers(min_value=1, max_value=5))
    for i in range(n_routers):
        t.add_router(f"r{i}")
        if i > 0:
            parent = draw(st.integers(min_value=0, max_value=i - 1))
            t.add_link(f"r{i}", f"r{parent}")
    n_hosts = draw(st.integers(min_value=2, max_value=8))
    for i in range(n_hosts):
        r = draw(st.integers(min_value=0, max_value=n_routers - 1))
        t.add_switch(f"s{i}")
        t.add_link(f"s{i}", f"r{r}")
        t.add_host(f"h{i}")
        t.add_link(f"h{i}", f"s{i}")
    return t


class TestTtlDistanceProperties:
    @given(random_topologies())
    @settings(max_examples=100, deadline=None)
    def test_symmetry(self, t):
        hosts = t.hosts()
        for a in hosts:
            for b in hosts:
                assert t.ttl_distance(a, b) == t.ttl_distance(b, a)

    @given(random_topologies())
    @settings(max_examples=100, deadline=None)
    def test_self_distance_zero_and_others_positive(self, t):
        for h in t.hosts():
            assert t.ttl_distance(h, h) == 0
            for other in t.hosts():
                if other != h:
                    assert t.ttl_distance(h, other) >= 1

    @given(random_topologies())
    @settings(max_examples=100, deadline=None)
    def test_connected_tree_reaches_everyone(self, t):
        hosts = t.hosts()
        for a in hosts:
            for b in hosts:
                assert t.ttl_distance(a, b) != UNREACHABLE

    @given(random_topologies())
    @settings(max_examples=60, deadline=None)
    def test_adding_a_link_never_increases_distance(self, t):
        hosts = t.hosts()
        routers = t.devices()
        before = {
            (a, b): t.ttl_distance(a, b) for a in hosts for b in hosts
        }
        # Add a shortcut between two random existing routers (if >=2).
        rs = [d for d in routers if d.startswith("r")]
        if len(rs) >= 2 and rs[1] not in t.neighbors(rs[0]):
            t.add_link(rs[0], rs[1])
            for (a, b), old in before.items():
                assert t.ttl_distance(a, b) <= old

    @given(random_topologies())
    @settings(max_examples=60, deadline=None)
    def test_hosts_within_matches_distance(self, t):
        hosts = t.hosts()
        src = hosts[0]
        for ttl in (1, 2, 3):
            within = set(t.hosts_within(src, ttl))
            expected = {h for h in hosts if h != src and t.ttl_distance(src, h) <= ttl}
            assert within == expected


@st.composite
def topology_recipes(draw):
    """A random graph as a replayable build list, with non-leaf hosts.

    Hosts hang off switches under a router tree; a few extra links make
    some hosts multi-homed or host-to-host (so they stop being simple
    leaves) and may add a WAN edge between two switches.
    """
    steps = []
    n_routers = draw(st.integers(min_value=1, max_value=3))
    for i in range(n_routers):
        steps.append(("add_router", f"r{i}"))
        if i > 0:
            parent = draw(st.integers(min_value=0, max_value=i - 1))
            steps.append(("add_link", f"r{i}", f"r{parent}", 0.0002, False))
    n_switches = draw(st.integers(min_value=1, max_value=3))
    for i in range(n_switches):
        steps.append(("add_switch", f"s{i}"))
        r = draw(st.integers(min_value=0, max_value=n_routers - 1))
        steps.append(("add_link", f"s{i}", f"r{r}", 0.0003, False))
    n_hosts = draw(st.integers(min_value=2, max_value=6))
    for i in range(n_hosts):
        steps.append(("add_host", f"h{i}"))
        s = draw(st.integers(min_value=0, max_value=n_switches - 1))
        steps.append(("add_link", f"h{i}", f"s{s}", 0.0001, False))
    devices = [f"r{i}" for i in range(n_routers)] + [f"s{i}" for i in range(n_switches)]
    hosts = [f"h{i}" for i in range(n_hosts)]
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        a = draw(st.sampled_from(hosts + devices))
        b = draw(st.sampled_from(hosts + devices))
        wan = draw(st.booleans()) and a.startswith("s") and b.startswith("s")
        if a != b:
            steps.append(("add_link", a, b, draw(st.sampled_from((0.00005, 0.0004))), wan))
    return steps


def build(steps, down=()):
    t = Topology()
    for step in steps:
        if step[0] == "add_link":
            _, a, b, lat, wan = step
            t.add_link(a, b, latency=lat, wan=wan)
        else:
            getattr(t, step[0])(step[1])
    for device in down:
        t.set_up(device, False)
    return t


def answers(t):
    hosts = t.hosts()
    return {
        (a, b): (t.mc_route(a, b), t.unicast_latency(a, b)) for a in hosts for b in hosts
    }


class TestLeafFlips:
    @given(topology_recipes(), st.lists(st.integers(min_value=0, max_value=20), max_size=12))
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_answers_match_a_fresh_topology_after_every_flip(self, steps, flips):
        """Flip devices with warm caches; every answer stays bit-identical."""
        t = build(steps)
        devices = t.devices()
        answers(t)
        for i in flips:
            device = devices[i % len(devices)]
            t.set_up(device, not t.is_up(device))
            down = [d for d in devices if not t.is_up(d)]
            assert answers(t) == answers(build(steps, down))


class TestModelProperties:
    @given(st.integers(min_value=2, max_value=5000), st.integers(min_value=2, max_value=5000))
    @settings(max_examples=200, deadline=None)
    def test_bandwidth_monotone_in_n(self, a, b):
        for model in (AllToAllModel(), GossipModel(), HierarchicalModel()):
            lo, hi = min(a, b), max(a, b)
            assert model.aggregate_bandwidth(lo) <= model.aggregate_bandwidth(hi)

    @given(st.integers(min_value=21, max_value=5000))
    @settings(max_examples=200, deadline=None)
    def test_hierarchical_always_cheapest_beyond_one_group(self, n):
        h, a, g = HierarchicalModel(), AllToAllModel(), GossipModel()
        assert h.aggregate_bandwidth(n) <= a.aggregate_bandwidth(n)
        assert h.bdt(n) <= a.bdt(n) <= g.bdt(n)

    @given(st.integers(min_value=2, max_value=5000))
    @settings(max_examples=200, deadline=None)
    def test_convergence_at_least_detection(self, n):
        for model in (AllToAllModel(), GossipModel(), HierarchicalModel()):
            assert model.convergence_time(n) >= model.detection_time(n)

    @given(
        st.integers(min_value=2, max_value=2000),
        st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_detection_scales_inverse_with_freq(self, n, freq):
        base = AllToAllModel(AnalysisParams(freq=1.0)).detection_time(n)
        scaled = AllToAllModel(AnalysisParams(freq=freq)).detection_time(n)
        assert math.isclose(scaled, base / freq, rel_tol=1e-9)
