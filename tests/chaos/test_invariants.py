"""Unit tests for the chaos invariant checker."""

from repro.chaos import InvariantChecker
from repro.cluster.failures import FailureSchedule
from repro.core import HierarchicalNode
from repro.net import Network
from repro.net.builders import build_switched_cluster
from repro.protocols import deploy


def make(networks=2, per_net=3, seed=1, **checker_kwargs):
    topo, hosts = build_switched_cluster(networks, per_net)
    net = Network(topo, seed=seed)
    nodes = deploy(HierarchicalNode, net, hosts)
    checker = InvariantChecker(net, nodes, **checker_kwargs)
    return net, hosts, nodes, checker


class TestHealthyCluster:
    def test_clean_run_has_no_violations(self):
        net, hosts, nodes, checker = make()
        checker.start(period=2.0)
        net.run(until=40.0)
        checker.stop()
        checker.check_false_failures()
        checker.check_agreement()
        assert checker.ok, checker.violations
        assert checker.false_failures == []
        assert checker.summary()["ok"]

    def test_clean_crash_is_not_a_false_failure(self):
        net, hosts, nodes, checker = make()
        sched = FailureSchedule(net)
        for h in hosts:
            sched.register_stack(h, nodes[h])
        sched.crash_node_at(20.0, hosts[1])
        checker.start(period=2.0)
        net.run(until=50.0)
        checker.stop()
        checker.check_false_failures()
        # Removals of a genuinely dead node are correct behaviour.
        assert checker.false_failures == []
        assert not [v for v in checker.violations if v.invariant == "false_failures"]

    def test_agreement_detects_divergence(self):
        net, hosts, nodes, checker = make()
        net.run(until=30.0)
        # Force a wrong view on one node: drop a live peer.
        nodes[hosts[0]].directory.remove(hosts[1])
        out = checker.check_agreement()
        assert any(hosts[1] in v.detail for v in out)
        assert not checker.ok


class TestFalseFailures:
    def test_live_reachable_removal_counts(self):
        net, hosts, nodes, checker = make()
        net.run(until=15.0)
        # Fabricate the trace record a buggy node would emit.
        net.trace.emit(net.now, "member_down", node=hosts[0], target=hosts[1],
                       reason="timeout")
        assert len(checker.false_failures) == 1

    def test_severed_link_removal_does_not_count(self):
        net, hosts, nodes, checker = make()
        net.run(until=15.0)
        net.ensure_fault_plan().partition(
            [hosts[0]], [hosts[1]], start=0.0, symmetric=False
        )
        net.trace.emit(net.now, "member_down", node=hosts[0], target=hosts[1],
                       reason="timeout")
        assert checker.false_failures == []

    def test_downed_device_removal_does_not_count(self):
        net, hosts, nodes, checker = make()
        net.run(until=15.0)
        net.fail_device("dc0-sw1")  # partitions network 0 from network 1
        observer = hosts[0]           # in network 0
        target = hosts[-1]            # in network 1
        net.trace.emit(net.now, "member_down", node=observer, target=target,
                       reason="timeout")
        assert checker.false_failures == []

    def test_graceful_leave_does_not_count(self):
        net, hosts, nodes, checker = make()
        net.run(until=15.0)
        net.trace.emit(net.now, "member_down", node=hosts[0], target=hosts[1],
                       reason="leave")
        assert checker.false_failures == []

    def test_bound_enforced(self):
        net, hosts, nodes, checker = make(max_false_failures=2)
        net.run(until=15.0)
        for _ in range(3):
            net.trace.emit(net.now, "member_down", node=hosts[0],
                           target=hosts[1], reason="timeout")
        out = checker.check_false_failures()
        assert len(out) == 1
        assert out[0].invariant == "false_failures"


class TestResurrection:
    def test_zombie_entry_flagged_once(self):
        net, hosts, nodes, checker = make(zombie_grace=5.0)
        checker.start(period=1.0)
        net.run(until=20.0)
        victim = hosts[1]
        dead_record = nodes[victim].self_record()
        nodes[victim].stop()
        net.crash_host(victim)
        net.run(until=40.0)
        # Re-plant the buried record in a live directory: a resurrection.
        nodes[hosts[0]].directory.upsert(dead_record, net.now)
        net.run(until=50.0)
        checker.stop()
        zombies = [v for v in checker.violations if v.invariant == "resurrection"]
        assert len(zombies) == 1  # flagged once, not once per tick
        assert victim in zombies[0].detail

    def test_restarted_node_not_flagged(self):
        net, hosts, nodes, checker = make(zombie_grace=5.0)
        sched = FailureSchedule(net)
        for h in hosts:
            sched.register_stack(h, nodes[h])
        sched.crash_node_at(20.0, hosts[1])
        sched.recover_node_at(30.0, hosts[1])
        checker.start(period=1.0)
        net.run(until=60.0)
        checker.stop()
        # The new incarnation's entries are legitimate everywhere.
        assert not [v for v in checker.violations if v.invariant == "resurrection"]


class TestDualLeaders:
    def test_stable_cluster_has_no_dual_leader_violation(self):
        net, hosts, nodes, checker = make(networks=3, per_net=4)
        checker.start(period=2.0)
        net.run(until=60.0)
        checker.stop()
        assert not [v for v in checker.violations if v.invariant == "dual_leader"]

    def test_forced_persistent_dual_leader_flagged(self):
        net, hosts, nodes, checker = make(networks=1, per_net=4,
                                          leader_streak=2)
        net.run(until=20.0)
        leaders = [h for h in hosts if nodes[h].is_leader(0)]
        assert len(leaders) == 1
        # Force a second, frozen flag-flier the election cannot demote.
        other = next(h for h in hosts if h not in leaders)
        group = nodes[other]._ctx.groups[0]
        group.i_am_leader = True
        nodes[other].stop = lambda: None  # keep it "running"
        for _ in range(3):
            checker.tick()
        dual = [v for v in checker.violations if v.invariant == "dual_leader"]
        assert len(dual) == 1
        assert "level 0" in dual[0].detail

    def test_partitioned_leaders_not_mutually_visible(self):
        net, hosts, nodes, checker = make(networks=1, per_net=4,
                                          leader_streak=1)
        net.run(until=20.0)
        leader = next(h for h in hosts if nodes[h].is_leader(0))
        other = next(h for h in hosts if h != leader)
        nodes[other]._ctx.groups[0].i_am_leader = True
        net.ensure_fault_plan().partition([leader], [other], start=0.0)
        for _ in range(3):
            checker.tick()
        # Severed pair: dual flags are expected, not a violation.
        assert not [v for v in checker.violations if v.invariant == "dual_leader"]
