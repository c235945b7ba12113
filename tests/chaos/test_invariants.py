"""Unit tests for the chaos invariant checker."""

from repro.chaos import InvariantChecker
from repro.chaos.invariants import LEADER_STREAK
from repro.cluster.failures import FailureSchedule
from repro.core import HierarchicalNode
from repro.core.groups import GroupState
from repro.net import Network
from repro.net.builders import build_switched_cluster
from repro.protocols import AllToAllNode, deploy


def make(networks=2, per_net=3, seed=1, cls=HierarchicalNode):
    topo, hosts = build_switched_cluster(networks, per_net)
    net = Network(topo, seed=seed)
    nodes = deploy(cls, net, hosts)
    checker = InvariantChecker(net, nodes)
    return net, hosts, nodes, checker


class TestHealthyCluster:
    def test_clean_run_has_no_violations(self):
        net, hosts, nodes, checker = make()
        checker.start()
        net.run(until=40.0)
        assert checker.finish() == []
        assert checker.ok, checker.violations
        assert checker.false_failures == []
        assert checker.summary()["ok"]

    def test_clean_crash_is_not_a_false_failure(self):
        net, hosts, nodes, checker = make()
        sched = FailureSchedule(net)
        for h in hosts:
            sched.register_stack(h, nodes[h])
        sched.crash_node_at(20.0, hosts[1])
        checker.start()
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
        net, hosts, nodes, checker = make()
        assert checker.max_false_failures == 10  # the counter detector's budget
        net.run(until=15.0)

        def fabricate(count):
            for _ in range(count):
                net.trace.emit(net.now, "member_down", node=hosts[0],
                               target=hosts[1], reason="timeout")

        fabricate(10)
        assert checker.check_false_failures() == []
        fabricate(1)
        out = checker.check_false_failures()
        assert len(out) == 1
        assert out[0].invariant == "false_failures"


class TestResurrection:
    def test_grace_is_the_slowest_legitimate_removal(self):
        net, hosts, nodes, checker = make()
        cfg = nodes[hosts[0]].config
        # relayed timeout + deepest level timeout + two heartbeat periods
        assert checker.zombie_grace == (
            cfg.relayed_timeout + cfg.level_timeout(cfg.max_level) + 2 * cfg.heartbeat_period
        ) == 34.5

    def test_zombie_entry_flagged_once(self):
        net, hosts, nodes, checker = make()
        checker.start()
        net.run(until=20.0)
        victim = hosts[1]
        dead_record = nodes[victim].self_record()
        sched = FailureSchedule(net)
        sched.register_stack(victim, nodes[victim])
        sched.crash_node_at(net.now, victim)
        # Past the grace: the life ended at the t=22 tick, 22 + 34.5 < 60.
        net.run(until=60.0)
        # Re-plant the buried record in a live directory: a resurrection.
        nodes[hosts[0]].directory.upsert(dead_record, net.now)
        net.run(until=80.0)
        checker.stop()
        zombies = [v for v in checker.violations if v.invariant == "resurrection"]
        assert len(zombies) == 1  # flagged once, not once per tick
        assert victim in zombies[0].detail

    def test_restarted_node_not_flagged(self):
        net, hosts, nodes, checker = make()
        sched = FailureSchedule(net)
        for h in hosts:
            sched.register_stack(h, nodes[h])
        sched.crash_node_at(20.0, hosts[1])
        sched.recover_node_at(30.0, hosts[1])
        checker.start()
        # Well past the grace of the ended life.
        net.run(until=80.0)
        checker.stop()
        # The new incarnation's entries are legitimate everywhere.
        assert not [v for v in checker.violations if v.invariant == "resurrection"]


class TestDualLeaders:
    def test_stable_cluster_has_no_dual_leader_violation(self):
        net, hosts, nodes, checker = make(networks=3, per_net=4)
        checker.start()
        net.run(until=60.0)
        checker.stop()
        assert not [v for v in checker.violations if v.invariant == "dual_leader"]

    def test_forced_persistent_dual_leader_flagged(self):
        net, hosts, nodes, checker = make(networks=1, per_net=4)
        net.run(until=20.0)
        leaders = [h for h in hosts if nodes[h].is_leader(0)]
        assert len(leaders) == 1
        # Force a second, frozen flag-flier the election cannot demote.
        other = next(h for h in hosts if h not in leaders)
        group = nodes[other]._ctx.groups[0]
        group.i_am_leader = True
        nodes[other].stop = lambda: None  # keep it "running"
        for _ in range(LEADER_STREAK - 1):
            checker.tick()
        assert not [v for v in checker.violations if v.invariant == "dual_leader"]
        for _ in range(LEADER_STREAK + 1):
            checker.tick()
        dual = [v for v in checker.violations if v.invariant == "dual_leader"]
        assert len(dual) == 1
        assert "level 0" in dual[0].detail

    def test_partitioned_leaders_not_mutually_visible(self):
        net, hosts, nodes, checker = make(networks=1, per_net=4)
        net.run(until=20.0)
        leader = next(h for h in hosts if nodes[h].is_leader(0))
        other = next(h for h in hosts if h != leader)
        nodes[other]._ctx.groups[0].i_am_leader = True
        net.ensure_fault_plan().partition([leader], [other], start=0.0)
        for _ in range(LEADER_STREAK):
            checker.tick()
        # Severed pair: dual flags are expected, not a violation.
        assert not [v for v in checker.violations if v.invariant == "dual_leader"]


class TestHierarchy:
    def test_healthy_cluster_has_no_errors(self):
        net, hosts, nodes, checker = make(networks=3, per_net=4, seed=5)
        net.run(until=14.0)
        assert checker.check_hierarchy() == []
        assert checker.ok

    def test_detects_mutual_leaders(self):
        net, hosts, nodes, checker = make(networks=1, per_net=3)
        net.run(until=12.0)
        # Corrupt: make a follower believe it leads while seeing the leader.
        nodes[hosts[2]]._ctx.groups[0].i_am_leader = True
        out = checker.check_hierarchy()
        assert any(v.invariant == "hierarchy" and "sees leaders" in v.detail for v in out)
        assert not checker.ok

    def test_detects_orphan_participation(self):
        net, hosts, nodes, checker = make(networks=1, per_net=3)
        net.run(until=12.0)
        # Joined L1 without leading L0.
        nodes[hosts[2]]._ctx.groups[1] = GroupState(1)
        out = checker.check_hierarchy()
        assert any("without leading" in v.detail for v in out)

    def test_flat_baseline_has_no_hierarchy_to_check(self):
        net, hosts, nodes, checker = make(cls=AllToAllNode)
        net.run(until=12.0)
        assert checker.check_hierarchy() == []

    def test_finish_runs_every_end_check(self):
        net, hosts, nodes, checker = make(networks=1, per_net=3)
        checker.start()
        net.run(until=12.0)
        nodes[hosts[2]]._ctx.groups[1] = GroupState(1)
        out = checker.finish()
        assert [v.invariant for v in out] == ["hierarchy"]
        assert checker._timer is None  # the ticks stopped
