"""Shared state and cross-role services for the five daemon roles.

The paper's daemon threads share one process: the membership directory,
the per-channel group views, the update streams.  :class:`NodeContext`
is that shared process state, plus the handful of helpers that no single
role owns (channel participation, relay-point tests, vouch anchoring
inputs).  Each role holds the context and reaches its siblings through
it — mirroring Fig. 10, where the five threads cooperate over shared
memory rather than calling each other directly.

The context deliberately does **not** know about ``repro.sim`` or
``repro.net``: all environment access goes through the
:class:`~repro.runtime.ports.NodeRuntime` ports, which is what makes the
roles unit-testable against a fake runtime (``tests/core/roles``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Protocol, Set, Tuple

from repro.core.groups import GroupState

if TYPE_CHECKING:
    import random

    from repro.cluster.directory import Directory, NodeRecord
    from repro.core.config import HierarchicalConfig
    from repro.core.roles.announcer import Announcer
    from repro.core.roles.contender import Contender
    from repro.core.roles.informer import Informer
    from repro.core.roles.receiver import Receiver
    from repro.core.roles.tracker import Tracker
    from repro.core.updates import UpdateManager
    from repro.detect import FailureDetector
    from repro.runtime.ports import NodeRuntime

__all__ = ["NodeContext", "MemberHost", "RateLimiter"]


class MemberHost(Protocol):
    """What the roles require of the node facade hosting them.

    :class:`~repro.core.node.HierarchicalNode` is the production
    implementation; role unit tests substitute a stub.  The underscored
    members are part of the facade's stable internal surface (tests
    monkeypatch ``_maybe_sync``, so every internal sync request must
    route through it).
    """

    node_id: str
    incarnation: int
    running: bool

    def self_record(self) -> "NodeRecord": ...

    def refute_death(self) -> None: ...

    def _maybe_sync(self, peer: str) -> bool: ...

    def _emit_member_up(self, target: str) -> None: ...

    def _emit_member_down(self, target: str, reason: str = "timeout") -> None: ...


class RateLimiter:
    """Lets each key act at most once per ``interval``: key -> time it last acted.

    An entry ``interval`` old or older limits nothing, so whenever the map
    has doubled in size since its last sweep it drops those entries: its
    size stays within twice the keys that acted in the last interval (for
    keys acting at a steady rate), however many distinct keys ever pass.
    """

    __slots__ = ("last", "_swept")

    def __init__(self) -> None:
        self.last: Dict[str, float] = {}
        self._swept = 1  # size after the last sweep (at least 1)

    def __len__(self) -> int:
        return len(self.last)

    def allow(self, key: str, now: float, interval: float) -> bool:
        """True, and ``key`` stamped ``now``, unless it acted within ``interval``."""
        last = self.last.get(key)
        if last is not None and now - last < interval:
            return False
        self.last[key] = now
        if len(self.last) >= 2 * self._swept:
            self.last = {k: t for k, t in self.last.items() if now - t < interval}
            self._swept = max(1, len(self.last))
        return True

    def forget(self, key: str) -> None:
        """Let ``key`` act at once, whenever it last acted."""
        self.last.pop(key, None)

    def clear(self) -> None:
        self.last.clear()
        self._swept = 1


class NodeContext:
    """One daemon's shared state, threaded through all five roles."""

    def __init__(
        self,
        node: MemberHost,
        runtime: "NodeRuntime",
        config: "HierarchicalConfig",
        directory: "Directory",
        rng: "random.Random",
        updates: "UpdateManager",
        detector: "Optional[FailureDetector]" = None,
    ) -> None:
        self.node = node
        #: the host's (immutable) id, denormalised onto the context — it is
        #: compared against every op of every update message, so the hot
        #: paths read an attribute instead of chaining through ``node``.
        self.node_id = node.node_id
        self.runtime = runtime
        self.config = config
        self.directory = directory
        self.rng = rng
        self.updates = updates
        if detector is None:
            # Standalone contexts (role unit tests) get the default
            # strategy; the node facade passes its own detector in.
            from repro.detect import CounterDetector

            detector = CounterDetector(config, runtime)
        #: the failure-detection strategy judging peer liveness
        self.detector: "FailureDetector" = detector
        #: level -> this node's view of that channel
        self.groups: Dict[int, GroupState] = {}
        #: sorted cache of ``groups``' keys, maintained on join/leave so
        #: the per-heartbeat/per-tick loops stop re-sorting the dict
        self.levels: Tuple[int, ...] = ()
        # Death certificates: node_id -> (incarnation, time of removal).
        # While quarantined, an add with the same (or older) incarnation is
        # rejected — otherwise a stale snapshot or in-flight update can
        # resurrect a dead node cluster-wide.  A genuinely restarted node
        # announces a higher incarnation and passes.
        self.tombstones: Dict[str, Tuple[int, float]] = {}
        # Rate limiter for active tombstone refutations (Informer).
        self.tombstone_refutes = RateLimiter()
        # Peers we owe a completed sync exchange: retried from the status
        # tracker until their sync_resp lands (bootstrap over lossy UDP
        # must not be a one-shot).
        self.pending_syncs: Set[str] = set()
        # While this deadline is in the future (set on becoming leader),
        # sync results are re-announced wholesale to our groups — the
        # bootstrap protocol's "the result is then propagated to all group
        # members", which repairs members' collateral removals after a
        # leader failover.  Deliberately *not* reset on restart (matching
        # the monolith): the window is wall-clock-anchored, not per-life.
        self.bootstrap_announce_until = 0.0
        self.last_full_announce = float("-inf")
        # Roles, wired by :meth:`wire` after construction.
        self.announcer: "Announcer"
        self.receiver: "Receiver"
        self.tracker: "Tracker"
        self.informer: "Informer"
        self.contender: "Contender"

    def wire(
        self,
        announcer: "Announcer",
        receiver: "Receiver",
        tracker: "Tracker",
        informer: "Informer",
        contender: "Contender",
    ) -> None:
        self.announcer = announcer
        self.receiver = receiver
        self.tracker = tracker
        self.informer = informer
        self.contender = contender

    # ------------------------------------------------------------------
    # Facade pass-throughs
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.runtime.now

    def maybe_sync(self, peer: str) -> bool:
        """Request a sync exchange, routed through the facade hook.

        Every internal sync request goes through ``node._maybe_sync`` so
        instance-level monkeypatching (tests, experiments) observes all
        of them, whichever role originated the request.
        """
        return self.node._maybe_sync(peer)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset_for_start(self) -> None:
        """Forget per-life state on daemon (re)start.

        The bootstrap-announce window survives restarts by design (see
        the attribute comment above).
        """
        self.updates.reset()
        self.groups.clear()
        self.levels = ()
        self.tombstones.clear()
        self.tombstone_refutes.clear()
        self.pending_syncs.clear()

    # ------------------------------------------------------------------
    # Channel participation
    # ------------------------------------------------------------------
    def participate(self, level: int) -> None:
        """Join the channel at ``level`` and announce presence."""
        if level in self.groups or level > self.config.max_level:
            return
        self.groups[level] = GroupState(level)
        self.levels = tuple(sorted(self.groups))
        self.runtime.subscribe(
            self.config.channel(level), self.receiver.channel_handler(level)
        )
        self.announcer.send_heartbeat(level)  # announce presence immediately

    def abandon(self, level: int, orphans: Optional[Set[str]] = None) -> None:
        """Drop out of ``level`` and, recursively, everything above it.

        Peers heard only on the abandoned channels are collected into
        ``orphans`` so the caller can re-home their directory entries
        (see :meth:`~repro.core.roles.contender.Contender.step_down`);
        without that they would linger as direct entries nobody
        refreshes.
        """
        group = self.groups.pop(level, None)
        if group is None:
            return
        self.levels = tuple(sorted(self.groups))
        self.announcer.drop_level(level)
        self.runtime.unsubscribe(self.config.channel(level))
        if orphans is not None:
            orphans.update(group.member_ids())
        self.abandon(level + 1, orphans)

    def abandon_all(self) -> None:
        """Leave every channel without orphan re-homing (daemon stop)."""
        for level in list(self.groups):
            self.runtime.unsubscribe(self.config.channel(level))
        self.groups.clear()
        self.levels = ()
        self.announcer.reset()

    # ------------------------------------------------------------------
    # Cross-role queries
    # ------------------------------------------------------------------
    def heard_level(self, node_id: str) -> Optional[int]:
        """Lowest level where ``node_id`` is currently a direct peer."""
        for level in self.levels:
            if node_id in self.groups[level].peers:
                return level
        return None

    def is_relay_point(self) -> bool:
        """True when this node relays between channels (leader or multi-level)."""
        return len(self.groups) > 1 or any(
            g.i_am_leader for g in self.groups.values()
        )

    # ------------------------------------------------------------------
    # Trace hooks (delegated to the facade's shared vocabulary)
    # ------------------------------------------------------------------
    def emit_member_up(self, target: str) -> None:
        self.node._emit_member_up(target)

    def emit_member_down(self, target: str, reason: str = "timeout") -> None:
        self.node._emit_member_down(target, reason=reason)
