"""Lifecycle regressions shared by all three protocol stacks and the Neptune layer.

The runtime layer owns every timer a protocol node creates, so
``stop()`` must leave no live timers behind — for the hierarchical node
(which had this guarantee since the stray-one-shot fix) *and* for the
baselines (which previously hand-rolled timer bookkeeping and leaked
their self-rescheduling one-shots), and for the membership proxy and
the Neptune modules (provider, consumer, load reporter/tracker,
gateway), which each run on a runtime of their own.  A leaked timer
fires into the node's next life and acts on stale state, or keeps a
dead node's callbacks churning forever.
"""

import pytest

from repro.apps import SearchDeployment
from repro.cluster import Gateway, LoadReporter, LoadTracker
from repro.core.config import HierarchicalConfig
from repro.metrics.experiment import make_scheme_cluster
from repro.protocols.base import ProtocolConfig
from repro.runtime import SimRuntime


def make_nodes(scheme, detector=None):
    config = None
    if detector is not None:
        cls = HierarchicalConfig if scheme == "hierarchical" else ProtocolConfig
        config = cls(detector=detector)
    net, hosts, nodes = make_scheme_cluster(scheme, 2, 3, seed=11, config=config)
    return net, hosts, nodes


@pytest.mark.parametrize("scheme", ["hierarchical", "all-to-all", "gossip"])
def test_stop_mid_run_leaves_no_live_timers(scheme):
    net, hosts, nodes = make_nodes(scheme)
    # Mid-run: timers re-armed, elections/syncs in flight for the
    # hierarchical scheme (its one-shots are the interesting part).
    net.run(until=7.3)
    for node in nodes.values():
        assert node.runtime.live_timers > 0  # the daemon is actually ticking
        node.stop()
        assert node.runtime.live_timers == 0
    # Nothing protocol-related fires after a full quiesce either.
    before = len(net.trace)
    net.run(until=60.0)
    assert len(net.trace) == before


@pytest.mark.parametrize("scheme", ["hierarchical", "all-to-all", "gossip"])
def test_restart_after_stop_rebuilds_timers(scheme):
    net, hosts, nodes = make_nodes(scheme)
    net.run(until=5.0)
    victim = hosts[0]
    nodes[victim].stop()
    assert nodes[victim].runtime.live_timers == 0
    nodes[victim].start()
    assert nodes[victim].runtime.live_timers > 0
    net.run(until=30.0)
    # The restarted node rejoins: everyone sees it again.
    for host, node in nodes.items():
        if host != victim:
            assert node.knows(victim)


@pytest.mark.parametrize("scheme", ["hierarchical", "all-to-all", "gossip"])
@pytest.mark.parametrize("detector", ["swim", "phi-accrual"])
def test_stop_with_active_detector_leaves_no_live_timers(scheme, detector):
    # Active detectors own timers of their own (SWIM's probe rounds and
    # per-probe timeouts); node.stop() must take those down too.
    net, hosts, nodes = make_nodes(scheme, detector=detector)
    net.run(until=7.3)
    for node in nodes.values():
        assert node.detector.name == detector
        node.stop()
        assert node.runtime.live_timers == 0
    before = len(net.trace)
    net.run(until=60.0)
    assert len(net.trace) == before


@pytest.mark.parametrize("scheme", ["hierarchical", "all-to-all", "gossip"])
@pytest.mark.parametrize("detector", ["swim", "phi-accrual"])
def test_restart_with_active_detector_rejoins(scheme, detector):
    net, hosts, nodes = make_nodes(scheme, detector=detector)
    net.run(until=5.0)
    victim = hosts[0]
    nodes[victim].stop()
    assert nodes[victim].runtime.live_timers == 0
    nodes[victim].start()
    net.run(until=40.0)
    for host, node in nodes.items():
        if host != victim:
            assert node.knows(victim)


@pytest.mark.parametrize("scheme", ["hierarchical", "all-to-all", "gossip"])
def test_rebuild_detector_swaps_strategy_mid_run(scheme):
    # The service API's detector control rides this path: a running node
    # swaps strategies without a restart and keeps ticking.
    from dataclasses import replace

    net, hosts, nodes = make_nodes(scheme)
    net.run(until=5.0)
    node = nodes[hosts[0]]
    assert node.detector.name == "counter"
    node.apply_config(replace(node.config, detector="swim"))
    assert node.detector.name == "swim"
    assert node.running
    net.run(until=25.0)
    for host, other in nodes.items():
        if host != hosts[0]:
            assert other.knows(hosts[0])
    node.stop()
    assert node.runtime.live_timers == 0


def test_update_streams_follow_a_replaced_config():
    # The update streams read the piggyback depth and horizon from the
    # config, so a control-plane replacement must reach them too.
    from dataclasses import replace

    net, hosts, nodes = make_nodes("hierarchical")
    node = nodes[hosts[0]]
    node.apply_config(replace(node.config, piggyback_depth=0))
    updates = node._ctx.updates
    assert updates.config is node.config
    updates.build(0, [], net.now)
    assert updates.build(0, [], net.now).piggyback == ()


@pytest.mark.parametrize("scheme", ["hierarchical", "all-to-all", "gossip"])
def test_stop_is_idempotent_and_timers_stay_dead(scheme):
    net, hosts, nodes = make_nodes(scheme)
    net.run(until=4.1)
    node = nodes[hosts[2]]
    node.stop()
    node.stop()  # second stop is a no-op, not an error
    assert node.runtime.live_timers == 0
    net.run(until=20.0)
    assert node.runtime.live_timers == 0


def test_neptune_layer_stop_leaves_no_live_timers():
    dep = SearchDeployment(networks=3, hosts_per_network=6, seed=5)
    net = dep.network
    engine = dep.engines["dcA"]
    providers = dep.clusters["dcA"].providers
    provider_host, provider = next(iter(providers.items()))
    reporter = LoadReporter(SimRuntime(net, provider_host), provider, report_period=0.25)
    tracker = LoadTracker(SimRuntime(net, engine.host))
    gateway = Gateway(
        SimRuntime(net, engine.host),
        executor=engine.query,
        workload=lambda seq: {"query": f"q{seq}"},
        rate=50.0,
    )
    reporter.start()
    tracker.start()
    dep.warm_up(12.0)
    gateway.start()
    net.run(until=net.now + 2.05)
    assert tracker.known_servers()  # the reporter is pushing
    ticking = [*dep.proxies, reporter, gateway]
    assert all(module.runtime.live_timers > 0 for module in ticking)
    modules = [
        *ticking,
        *(proxy._consumer for proxy in dep.proxies),
        *providers.values(),
        engine.consumer,
        tracker,
    ]
    for module in modules:
        module.stop()
        assert module.runtime.live_timers == 0
    issued, reports = gateway.stats.issued, reporter.reports_sent
    net.run(until=net.now + 10.0)
    assert (gateway.stats.issued, reporter.reports_sent) == (issued, reports)
    assert all(module.runtime.live_timers == 0 for module in modules)
