"""The hierarchical membership node (facade).

One :class:`HierarchicalNode` is the simulated equivalent of the paper's
C++ daemon (Fig. 10).  Its five thread roles are real modules in
:mod:`repro.core.roles`, sharing one
:class:`~repro.core.roles.context.NodeContext` and reaching the
environment only through the node's
:class:`~repro.runtime.ports.NodeRuntime`:

=================  ===========================================================
Announcer          :class:`~repro.core.roles.announcer.Announcer` — periodic
                   heartbeats on every channel the node participates in
Receiver           :class:`~repro.core.roles.receiver.Receiver` — per-channel
                   handlers and the ``hmember`` unicast port (heartbeats,
                   updates, sync polls)
Status Tracker     :class:`~repro.core.roles.tracker.Tracker` — purge silent
                   peers, expire relayed entries, drive elections
Contender          :class:`~repro.core.roles.contender.Contender` — apply
                   :mod:`repro.core.election` decisions, backups, step-downs
Informer           :class:`~repro.core.roles.informer.Informer` — update
                   origination/relay and the sync (bootstrap) server
=================  ===========================================================

This class wires the roles together, owns the two recurring daemon
timers, and preserves the public protocol API (lifecycle, introspection,
MService surface).  See ``docs/ARCHITECTURE.md`` for the full map.

Participation invariant: a node always subscribes to the level-0 channel;
it subscribes to channel *l+1* exactly while it is a leader at level *l*
("Lower level group leaders join a higher level group"), up to
``config.max_level``.

Directory semantics:

* peers heard directly on some channel are **direct** entries, purged after
  ``level_timeout(level)`` of silence;
* everything else is **relayed**, attributed to the direct peer that
  relayed it; relayed entries live as long as their relayer (leader
  heartbeats vouch for them in O(1)), are reattributed to the new leader on
  failover, and have a slow backstop timeout;
* removals ride explicit remove-updates with incarnation guards, so a
  restarted node is never deleted by old news about its previous life.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Set

from repro.core.config import HierarchicalConfig
from repro.core.roles import (
    HMEMBER_PORT,
    Announcer,
    Contender,
    Informer,
    NodeContext,
    Receiver,
    Tracker,
)
from repro.core.updates import UpdateManager, UpdateOp
from repro.protocols.base import MembershipNode

__all__ = ["HierarchicalNode", "HMEMBER_PORT"]


class HierarchicalNode(MembershipNode):
    """One node of the topology-adaptive hierarchical protocol.

    The protocol hot path — interned heartbeat payloads, an identity-based
    no-change receive path, deadline-heap directory purges — is described
    in docs/PERFORMANCE.md.
    """

    config: HierarchicalConfig

    def __init__(self, *args, **kwargs) -> None:
        if "config" not in kwargs or kwargs["config"] is None:
            kwargs["config"] = HierarchicalConfig()
        super().__init__(*args, **kwargs)
        if not isinstance(self.config, HierarchicalConfig):
            raise TypeError("HierarchicalNode requires a HierarchicalConfig")
        self._ctx = NodeContext(
            node=self,
            runtime=self.runtime,
            config=self.config,
            directory=self.directory,
            rng=self.rng,
            updates=UpdateManager(
                self.node_id,
                self.config,
                uid_alloc=self._make_uid_alloc(),
            ),
            detector=self.detector,
        )
        self._announcer = Announcer(self._ctx)
        self._receiver = Receiver(self._ctx)
        self._tracker = Tracker(self._ctx)
        self._informer = Informer(self._ctx)
        self._contender = Contender(self._ctx)
        self._ctx.wire(
            self._announcer,
            self._receiver,
            self._tracker,
            self._informer,
            self._contender,
        )

    def _make_uid_alloc(self) -> Optional[Callable[[], int]]:
        """Ask the network for a per-node uid allocator, if it has one.

        The plain :class:`~repro.net.network.Network` has no such hook
        (the process-global counter suffices); the sharded kernel's
        facade provides one so uids stay unique and deterministic across
        shard processes.
        """
        hook = getattr(self.network, "uid_alloc", None)
        return hook(self.node_id) if callable(hook) else None

    # ==================================================================
    # Failure-detection seam
    # ==================================================================
    def _wire_detector(self) -> None:
        # Probes ride the existing hmember unicast port — an active
        # detector costs the scheme no extra bind, and the default
        # counter strategy sends nothing at all.  Called from the base
        # __init__ before ``_ctx`` exists: attach only closures/bound
        # methods that resolve state at call time.
        from repro.detect import UnicastProber

        self.detector.attach(
            prober=UnicastProber(self.runtime, HMEMBER_PORT),
            members=self._probe_candidates,
        )

    def _probe_candidates(self) -> List[str]:
        """Peers heard directly on any channel — the probe target pool."""
        seen: Set[str] = set()
        for group in self._ctx.groups.values():
            seen.update(group.peers)
        seen.discard(self.node_id)
        return sorted(seen)

    def _on_detector_rebuilt(self) -> None:
        self._ctx.detector = self.detector
        # Channel handlers pre-resolve the observation hook; rebuild them
        # so they point at the new strategy (subscribe replaces in place).
        for level in self._ctx.levels:
            self.runtime.subscribe(
                self.config.channel(level), self._receiver.channel_handler(level)
            )

    def apply_config(self, config: HierarchicalConfig) -> None:
        super().apply_config(config)
        # The context and the update streams denormalise the config; keep
        # them in lockstep (the control plane replaces the frozen
        # dataclass wholesale).
        self._ctx.config = self.config
        self._ctx.updates.config = self.config

    # ==================================================================
    # Lifecycle (template in MembershipNode; scheme hooks here)
    # ==================================================================
    def _reset_run_state(self) -> None:
        self._ctx.reset_for_start()
        self._announcer.reset()
        self._informer.reset()

    def _on_start(self) -> None:
        self.runtime.bind(HMEMBER_PORT, self._receiver.on_unicast)
        self._ctx.participate(0)
        phase = self.rng.uniform(0, self.config.heartbeat_period)
        self.runtime.call_every(
            self.config.heartbeat_period,
            self._announcer.heartbeat_tick,
            first_delay=phase,
        )
        self.runtime.call_every(
            self.config.heartbeat_period, self._tracker.check_tick
        )

    def _on_stop(self) -> None:
        self._ctx.abandon_all()
        self.runtime.unbind(HMEMBER_PORT)

    def leave(self) -> None:
        """Graceful departure: announce, then stop.

        A planned removal should not cost the cluster ``max_loss`` periods
        of stale directory time: the node multicasts a ``leave`` op on all
        its channels (relayed through the tree like any update), then goes
        silent.  Receivers drop it immediately — the op bypasses the
        "I still hear it" guard that protects against false *remove*
        rumors, because only the node itself originates its leave.
        """
        if not self.running:
            return
        self._informer.originate([UpdateOp("leave", self.node_id, self.incarnation)])
        self.stop()

    def refute_death(self) -> None:
        """SWIM-style refutation of a false death rumor about this node.

        Bumps the incarnation (the higher incarnation beats the rumor and
        any death certificates guarding the old one) and moves the runtime
        epoch so one-shots scheduled against the old incarnation are
        dropped at fire time.
        """
        self.incarnation += 1
        self.runtime.bump_epoch()

    # ==================================================================
    # Introspection (used by tests, experiments and the proxy protocol)
    # ==================================================================
    def levels(self) -> List[int]:
        """Channels this node currently participates in, ascending.

        Derived from the groups dict (not the hot-path levels cache) so
        external inspection stays truthful even if tests poke the groups
        directly.
        """
        return sorted(self._ctx.groups)

    def is_leader(self, level: int) -> bool:
        group = self._ctx.groups.get(level)
        return bool(group and group.i_am_leader)

    def leader_of(self, level: int) -> Optional[str]:
        """The leader this node follows at ``level`` (itself if leading)."""
        group = self._ctx.groups.get(level)
        return group.current_leader(self.node_id) if group else None

    def visible_leaders(self, level: int) -> List[str]:
        """Other nodes this node sees flying the leader flag at ``level``."""
        group = self._ctx.groups.get(level)
        return group.visible_leaders() if group else []

    def group_members(self, level: int) -> List[str]:
        group = self._ctx.groups.get(level)
        return group.member_ids() if group else []

    @property
    def top_level(self) -> int:
        return max(self._ctx.groups) if self._ctx.groups else 0

    # ==================================================================
    # Self-publication changes (MService API surface)
    # ==================================================================
    def _self_changed(self) -> None:
        super()._self_changed()
        if self.running:
            record = self.self_record()
            self._informer.originate(
                [UpdateOp("add", self.node_id, record.incarnation, record)]
            )

    # ==================================================================
    # Sync seam
    # ==================================================================
    def _maybe_sync(self, peer: str) -> bool:
        # The single seam through which every internal sync request flows
        # (``NodeContext.maybe_sync`` routes here), so monkeypatching this
        # attribute on an instance intercepts all of them.
        return self._informer.maybe_sync(peer)
