"""Regression tests for bugs surfaced by the chaos fault-injection sweep.

Three protocol bugs came out of running the seeded chaos scenario
(``repro.chaos``) against the hierarchical node:

* **Stray one-shot timers** — the tombstone-quarantine re-sync backstop
  used a bare ``sim.call_after``, so it survived ``stop()`` and fired
  into the node's next life (or a dead shell).  Fixed by ``_call_once``:
  timers are cancelled on stop and guarded by the scheduling
  incarnation.
* **Abdication treated as death** — a leader stepping down abandons its
  upper channels; observers' higher-level groups timed it out and
  removed a live, heartbeating node cluster-wide.  Fixed by the
  ``_freshly_heard`` guard in ``_handle_peer_death``.
* **Silent backstop purges** — covered by
  ``tests/cluster/test_failures.py::TestPartitionAt`` (a relay point's
  ``relayed_timeout`` purge must originate remove-updates, else its
  subtree keeps the entries forever under the leader's implicit vouch).

Plus two boundary/idempotency cases the sweep's fault model made easy to
hit: a heartbeat landing exactly at the MAX_LOSS deadline, and a
duplicated ``leave`` announcement.
"""

from repro.core import HierarchicalNode
from repro.core.groups import GroupState, PeerState
from repro.net import Network
from repro.net.builders import build_switched_cluster
from repro.protocols import deploy


def make(networks=2, hosts=5, seed=1, loss=0.0):
    topo, hostlist = build_switched_cluster(networks, hosts)
    net = Network(topo, seed=seed, loss_rate=loss)
    nodes = deploy(HierarchicalNode, net, hostlist)
    return net, hostlist, nodes


class TestOneShotTimers:
    def test_oneshot_fires_while_running(self):
        net, hosts, nodes = make()
        net.run(until=10.0)
        fired = []
        nodes[hosts[0]].runtime.call_once(2.0, fired.append, "x")
        net.run(until=15.0)
        assert fired == ["x"]
        assert not nodes[hosts[0]].runtime.oneshots  # discarded after firing

    def test_oneshots_cancelled_on_stop(self):
        net, hosts, nodes = make()
        net.run(until=10.0)
        fired = []
        node = nodes[hosts[0]]
        node.runtime.call_once(5.0, fired.append, "stray")
        node.stop()
        assert not node.runtime.oneshots
        net.run(until=30.0)
        assert fired == []

    def test_stale_oneshot_blocked_by_incarnation_guard(self):
        # Belt and braces: even if an event somehow survives the stop()
        # cancellation sweep, the closure's incarnation check must keep a
        # previous life's timer from firing into the restarted node.
        net, hosts, nodes = make()
        net.run(until=10.0)
        fired = []
        node = nodes[hosts[0]]
        node.runtime.call_once(5.0, fired.append, "zombie")
        node.runtime.oneshots.clear()  # sabotage the cancellation sweep
        node.stop()
        node.start()  # new incarnation
        net.run(until=30.0)
        assert fired == []

    def test_tombstone_backstop_is_a_cancellable_oneshot(self):
        # The original sighting: a node absorbs a quarantined record,
        # schedules the re-sync backstop, then crashes before it fires.
        net, hosts, nodes = make()
        net.run(until=15.0)
        y = nodes[hosts[0]]
        victim = hosts[1]
        rec = nodes[victim].self_record()
        y._ctx.informer.bury(victim, rec.incarnation)
        before = len(y.runtime.oneshots)
        assert y._ctx.informer.absorb_record(rec, victim, net.now) is False  # quarantined
        assert len(y.runtime.oneshots) > before  # backstop registered as one-shot
        y.stop()
        assert not y.runtime.oneshots  # ...and dies with the node

    def test_no_sync_from_previous_life_after_restart(self):
        # The full regression shape: a node schedules the quarantine
        # re-sync backstop, stops mid-quarantine and restarts.  Every
        # sync attempt after that must belong to the new life — none may
        # come from the old life's timer.
        net, hosts, nodes = make()
        net.run(until=15.0)
        y = nodes[hosts[0]]
        victim = hosts[1]
        rec = nodes[victim].self_record()
        y._ctx.informer.bury(victim, rec.incarnation)
        calls = []
        orig = y._maybe_sync
        y._maybe_sync = lambda peer: (
            calls.append((y.running, y.incarnation)),
            orig(peer),
        )
        old_inc = y.incarnation
        assert y._ctx.informer.absorb_record(rec, victim, net.now) is False  # backstop set
        y.stop()
        y.start()
        net.run(until=40.0)  # well past quarantine + backstop delay
        assert calls  # the restarted node does sync...
        assert all(running and inc > old_inc for running, inc in calls)


class TestDeadlineBoundary:
    def test_heartbeat_exactly_at_max_loss_deadline_survives(self):
        # The failure deadline is strict: a peer whose last heartbeat
        # landed *exactly* ``timeout`` ago has not missed MAX_LOSS + 1
        # periods yet and must not be purged.
        g = GroupState(level=0)
        g.peers["a"] = PeerState("a", last_heard=10.0)
        assert g.purge_silent(now=15.0, timeout=5.0) == []
        assert "a" in g.peers
        dead = g.purge_silent(now=15.0 + 1e-9, timeout=5.0)
        assert [p.node_id for p in dead] == ["a"]

    def test_heartbeat_refresh_at_deadline_resets_the_clock(self):
        from repro.core.heartbeat import Heartbeat

        net, hosts, nodes = make()
        net.run(until=10.0)
        node = nodes[hosts[0]]
        hb = Heartbeat(
            record=nodes[hosts[1]].self_record(),
            level=0,
            is_leader=False,
            suppressed=False,
        )
        g = GroupState(level=0)
        g.note_heartbeat(hb, now=10.0)
        timeout = node.config.fail_timeout
        # Heard again exactly at the deadline: clock restarts from there.
        g.note_heartbeat(hb, now=10.0 + timeout)
        assert g.purge_silent(10.0 + 2 * timeout, timeout) == []
        assert g.purge_silent(10.0 + 2 * timeout + 1e-9, timeout) != []


class TestDuplicatedLeave:
    def test_duplicated_leave_applied_once(self):
        # Deliver every packet of the leaver twice (chaos duplication at
        # probability 1.0): the ``leave`` op must be idempotent — each
        # observer drops the leaver once and reports exactly one
        # member_down, reason "leave".
        net, hosts, nodes = make()
        net.run(until=15.0)
        leaver = hosts[3]
        net.ensure_fault_plan().add(
            src=leaver, duplicate=1.0, dup_lag=0.01, start=15.0,
            label="dup-leave",
        )
        nodes[leaver].leave()
        net.run(until=20.0)
        assert net.fault_plan.stats["duplicates"] > 0
        for h, node in nodes.items():
            if h != leaver:
                assert leaver not in node.view(), h
        downs = [
            r
            for r in net.trace.records(kind="member_down")
            if r.data["target"] == leaver
        ]
        assert downs
        assert all(r.data["reason"] == "leave" for r in downs)
        per_observer = {}
        for r in downs:
            per_observer[r.node] = per_observer.get(r.node, 0) + 1
        assert set(per_observer.values()) == {1}


class TestAbdicationIsNotDeath:
    def test_silence_on_one_channel_with_fresh_lower_channel_keeps_entry(self):
        net, hosts, nodes = make()
        net.run(until=15.0)
        y = nodes[hosts[1]]
        x = hosts[2]  # same network, plain member: y hears x at level 0
        assert x in y._ctx.groups[0].peers
        # Fabricate y's view of an upper channel x has abandoned.
        g = GroupState(level=1)
        g.peers[x] = PeerState(x, last_heard=net.now - 100.0)
        y._ctx.groups[1] = g
        y._ctx.levels = tuple(sorted(y._ctx.groups))
        stale = g.purge_silent(net.now, y.config.level_timeout(1))[0]
        y._ctx.tracker.handle_peer_death(1, stale)
        # Fresh at level 0: x stepped down, it did not die.
        assert x in y.directory
        downs = [
            r
            for r in net.trace.records(kind="member_down")
            if r.node == y.node_id and r.data["target"] == x
        ]
        assert downs == []

    def test_silence_on_every_channel_is_death(self):
        net, hosts, nodes = make()
        net.run(until=15.0)
        y = nodes[hosts[1]]
        x = hosts[2]
        y._ctx.groups[0].peers[x].last_heard = net.now - 100.0
        stale = y._ctx.groups[0].purge_silent(net.now, y.config.level_timeout(0))[0]
        y._ctx.tracker.handle_peer_death(0, stale)
        assert x not in y.directory


class TestPiggybackRecoveryUnderReorder:
    """Update streams must heal through lossy, reordering, duplicating links.

    Companion to the duplicate-path fix in ``UpdateManager.receive``: a
    reordered-behind packet's piggyback can carry updates that were lost
    and then jumped over, and throwing it away leaves directories stale.
    The sweep drives churn (a crash and a recovery) through a fault plan
    that loses, reorders and duplicates every packet for a while, then
    checks that every survivor converged on the same view.
    """

    def _run(self, seed):
        from repro.obs import MetricsRegistry, enable_observability

        net, hosts, nodes = make(networks=2, hosts=5, seed=seed)
        handle = enable_observability(net, MetricsRegistry())
        net.ensure_fault_plan().add(
            loss=0.15,
            reorder=0.5,
            reorder_window=0.4,
            duplicate=0.2,
            dup_lag=0.1,
            start=10.0,
            until=40.0,
            label="reorder-everything",
        )
        victim = hosts[-1]
        net.sim.call_at(15.0, nodes[victim].stop)
        net.sim.call_at(25.0, nodes[victim].start)
        net.run(until=80.0)
        return net, hosts, nodes, handle

    def test_survivors_converge_and_piggyback_recovers(self):
        net, hosts, nodes, handle = self._run(seed=11)
        views = {h: tuple(nodes[h].view()) for h in hosts}
        assert set(views.values()) == {tuple(sorted(hosts))}
        # The fault window actually dropped update packets and the
        # piggyback path healed at least some of them.
        inst = handle.instruments
        assert inst.piggyback_recovered.get() > 0

    def test_reordered_runs_are_seeded_deterministic(self):
        sig_a = [
            (r.time, r.kind, r.node, tuple(sorted(r.data.items())))
            for r in self._run(seed=11)[0].trace
        ]
        sig_b = [
            (r.time, r.kind, r.node, tuple(sorted(r.data.items())))
            for r in self._run(seed=11)[0].trace
        ]
        assert sig_a == sig_b
