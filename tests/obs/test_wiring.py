"""Integration tests: instruments wired into a live cluster."""

import functools
from collections import Counter

from repro.metrics.experiment import make_scheme_cluster
from repro.obs import (
    MetricsRegistry,
    NOOP,
    disable_observability,
    enable_observability,
)


def _trace_signature(net):
    return [
        (r.time, r.kind, r.node, tuple(sorted(r.data.items())))
        for r in net.trace
    ]


class TestWiring:
    def test_components_default_to_noop(self):
        net, _, _ = make_scheme_cluster("hierarchical", 1, 3, seed=3)
        assert net.obs is NOOP
        assert net.multicast_fabric.obs is NOOP
        assert net.transport.obs is NOOP
        assert not NOOP.enabled

    def test_enable_shares_one_bundle(self):
        net, _, _ = make_scheme_cluster("hierarchical", 1, 3, seed=3)
        handle = enable_observability(net)
        assert net.obs is handle.instruments
        assert net.multicast_fabric.obs is handle.instruments
        assert net.transport.obs is handle.instruments
        assert handle.instruments.enabled
        disable_observability(net)
        assert net.obs is NOOP

    def test_counters_fire_during_run(self):
        net, _, _ = make_scheme_cluster("hierarchical", 2, 4, seed=5)
        handle = enable_observability(net, MetricsRegistry())
        net.run(until=20.0)
        inst = handle.instruments
        assert inst.hb_tx.get() > 0
        assert inst.hb_rx.get() > 0
        assert inst.mc_tx.get() > 0
        assert inst.mc_rx.get() > 0
        assert inst.updates_tx.get() > 0
        assert inst.updates_rx.get() > 0
        assert inst.member_up.get() > 0
        assert inst.elections.get() > 0
        # Fast path interns unchanged heartbeats: steady state is mostly
        # the no-change branch.
        assert inst.hb_rx_fast.get() > 0
        assert inst.hb_rx_fast.get() <= inst.hb_rx.get()

    def test_member_down_labeled_by_reason(self):
        net, hosts, nodes = make_scheme_cluster("hierarchical", 1, 4, seed=5)
        handle = enable_observability(net)
        net.run(until=15.0)
        victim = hosts[-1]
        nodes[victim].stop()
        net.run(until=35.0)
        fam = handle.instruments.member_down
        down = fam.labels(reason="timeout").get()
        assert down >= len(hosts) - 1
        downs = net.trace.records(kind="member_down")
        assert down == sum(1 for r in downs if r.data["reason"] == "timeout")

    def test_enabling_does_not_move_the_trace(self):
        """Instrumentation must not perturb a seeded run (determinism)."""
        net_a, _, _ = make_scheme_cluster("hierarchical", 2, 4, seed=9)
        net_a.run(until=25.0)
        net_b, _, _ = make_scheme_cluster("hierarchical", 2, 4, seed=9)
        enable_observability(net_b, MetricsRegistry())
        net_b.run(until=25.0)
        assert _trace_signature(net_a) == _trace_signature(net_b)

    def test_kernel_sampler(self):
        net, _, _ = make_scheme_cluster("hierarchical", 1, 3, seed=3)
        handle = enable_observability(net)
        handle.start_sampler(period=1.0)
        net.run(until=10.0)
        handle.stop_sampler()
        inst = handle.instruments
        assert inst.sim_now.get() >= 9.0
        assert inst.sim_events.get() > 0

    def test_export_from_live_run(self):
        net, _, _ = make_scheme_cluster("hierarchical", 1, 3, seed=3)
        handle = enable_observability(net)
        net.run(until=15.0)
        text = handle.to_prometheus()
        assert "repro_heartbeats_tx_total" in text
        assert "# TYPE repro_multicast_fanout histogram" in text
        names = {fam["name"] for fam in handle.to_json()}
        assert "repro_sim_now_seconds" in names


class _CountingInstrument:
    """Stands in for any counter / histogram / gauge / family: counts calls."""

    def __init__(self, calls, name):
        self._calls, self._name = calls, name

    def _call(self, *_args, **_kwargs):
        self._calls[self._name] += 1
        return self

    inc = add = observe = set = labels = _call


class _CountingBundle:
    """An ``Instruments`` look-alike whose every attribute counts its calls."""

    enabled = True

    def __init__(self):
        self.calls = Counter()

    def __getattr__(self, name):
        instrument = _CountingInstrument(self.calls, name)
        setattr(self, name, instrument)
        return instrument


class TestSteadyStateCost:
    """The obs-overhead gate, in instrument calls instead of wall clock.

    What enabling observability adds to a steady-state run is one real
    method call per instrument site reached; this pins how many sites a
    kernel event reaches, so a new hot-path increment fails here (on any
    machine) instead of nudging a timing ratio.
    """

    COUNTERS = ("mc_tx", "mc_deliveries", "mc_rx", "hb_tx", "hb_rx", "hb_rx_fast")

    @staticmethod
    @functools.cache
    def window(mode):
        """Steady window t=20..40 of a formed 3x10 cluster under ``mode``."""
        net, _, _ = make_scheme_cluster("hierarchical", 3, 10, seed=47)
        net.run(until=20.0)
        before = net.sim.events_executed
        bundle = None
        if mode == "counting":
            bundle = _CountingBundle()
            net.obs = net.multicast_fabric.obs = net.transport.obs = bundle
        elif mode == "real":
            bundle = enable_observability(net, MetricsRegistry()).instruments
        net.run(until=40.0)
        return net.sim.events_executed - before, bundle, _trace_signature(net)

    def test_instrument_calls_per_kernel_event_are_pinned(self):
        events, bundle, _ = self.window("counting")
        assert events == 1860
        # Per heartbeat sent (700): announcer hb_tx, fabric mc_tx and the
        # mc_fanout histogram; 660 of them reach a subscriber and add one
        # mc_deliveries at send and one mc_rx per delivered batch (the 40
        # others are the root's beats on its two one-member upper channels).  Per
        # heartbeat received (5,520): receiver hb_rx + hb_rx_fast.
        assert dict(bundle.calls) == {
            "hb_tx": 700, "mc_tx": 700, "mc_fanout": 700,
            "mc_deliveries": 660, "mc_rx": 660,
            "hb_rx": 5520, "hb_rx_fast": 5520,
        }
        assert sum(bundle.calls.values()) == 14460  # 7.77 calls per kernel event

    def test_only_the_steady_state_instruments_fire(self):
        _, bundle, _ = self.window("counting")
        assert set(bundle.calls) == set(self.COUNTERS) | {"mc_fanout"}
        _, real, _ = self.window("real")
        assert [getattr(real, name).get() for name in self.COUNTERS] == [
            700, 5520, 5520, 700, 5520, 5520,
        ]

    def test_every_bundle_runs_the_same_events(self):
        noop = self.window("noop")
        for mode in ("counting", "real"):
            events, _, trace = self.window(mode)
            assert (events, trace) == (noop[0], noop[2]), mode


class TestChaosRunnerRegistry:
    def test_chaos_run_records_outcomes(self):
        from repro.chaos.runner import ChaosScenario

        registry = MetricsRegistry()
        scenario = ChaosScenario(
            seed=3, networks=2, hosts_per_network=4,
            chaos_start=12.0, chaos_end=22.0, quiesce=25.0,
            registry=registry,
        )
        result = scenario.run()
        inst = registry.get("repro_detection_seconds")
        assert inst is not None
        if result.detection is not None:
            assert inst.labels().count == 1
        fault_fam = registry.get("repro_fault_effects_total")
        assert fault_fam is not None
        total_effects = sum(c.get() for _, c in fault_fam.children())
        assert total_effects == sum(result.fault_stats.values())
