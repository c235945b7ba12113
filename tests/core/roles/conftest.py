"""A fake :class:`NodeRuntime` and daemon harness for role unit tests.

Before the role split, exercising tracker purges or the sync server meant
standing up a whole simulated network.  Now each role talks only to the
runtime ports, so these tests drive one daemon's roles directly: the fake
runtime records every publish/send/timer/trace call and advances a manual
clock — no simulator, no fabrics, no other nodes.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Tuple

import pytest

from repro.cluster.directory import Directory, NodeRecord
from repro.core.config import HierarchicalConfig
from repro.core.roles import (
    Announcer,
    Contender,
    Informer,
    NodeContext,
    Receiver,
    Tracker,
)
from repro.core.updates import UpdateManager
from repro.obs.wiring import NOOP, Instruments
from repro.runtime.ports import NodeRuntime, PacketHandler, TimerHandle


class FakeTimer:
    def __init__(self, delay: float, fn: Callable, args: tuple, epoch: int) -> None:
        self.delay = delay
        self.fn = fn
        self.args = args
        self.epoch = epoch
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class FakeRuntime(NodeRuntime):
    """In-memory runtime: manual clock, recorded effects, firable timers."""

    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        self.time = 0.0
        self._active = True
        self._epoch = 1
        self.oneshots: List[FakeTimer] = []
        self.recurring: List[FakeTimer] = []
        self.published: List[Tuple[str, int, str, object, int]] = []
        self.sent: List[Tuple[str, str, object, int, str]] = []
        self.subscriptions: dict = {}
        self.bound: dict = {}
        self.emitted: List[Tuple[float, str, dict]] = []

    # Clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.time

    def advance(self, dt: float) -> None:
        """Move the clock; due one-shots fire in scheduling order."""
        self.time += dt
        due = [t for t in self.oneshots if not t.cancelled and t.delay <= self.time]
        for timer in due:
            self.oneshots.remove(timer)
            if self._active and self._epoch == timer.epoch:
                timer.fn(*timer.args)

    # Lifecycle --------------------------------------------------------
    @property
    def active(self) -> bool:
        return self._active

    def activate(self) -> None:
        self._active = True
        self._epoch += 1

    def deactivate(self) -> None:
        self._active = False
        self.oneshots.clear()
        for timer in self.recurring:
            timer.cancel()
        self.recurring.clear()

    def bump_epoch(self) -> None:
        self._epoch += 1

    @property
    def live_timers(self) -> int:
        return sum(1 for t in self.oneshots if not t.cancelled) + sum(
            1 for t in self.recurring if not t.cancelled
        )

    # Timers -----------------------------------------------------------
    def call_once(self, delay: float, fn: Callable, *args: object) -> TimerHandle:
        timer = FakeTimer(self.time + delay, fn, args, self._epoch)
        self.oneshots.append(timer)
        return timer

    def call_every(
        self,
        period: float,
        fn: Callable,
        *args: object,
        first_delay: Optional[float] = None,
    ) -> TimerHandle:
        timer = FakeTimer(period, fn, args, self._epoch)
        self.recurring.append(timer)
        return timer

    # Channels ---------------------------------------------------------
    def subscribe(self, channel: str, handler: PacketHandler) -> None:
        self.subscriptions[channel] = handler

    def unsubscribe(self, channel: str) -> None:
        self.subscriptions.pop(channel, None)

    def publish(
        self, channel: str, ttl: int, kind: str, payload: object, size: int
    ) -> bool:
        self.published.append((channel, ttl, kind, payload, size))
        return True

    # Unicast ----------------------------------------------------------
    def bind(self, port: str, handler: PacketHandler) -> None:
        self.bound[port] = handler

    def unbind(self, port: str) -> None:
        self.bound.pop(port, None)

    def send(
        self, dst: str, kind: str, payload: object, size: int, port: str = "membership"
    ) -> bool:
        self.sent.append((dst, kind, payload, size, port))
        return True

    # Observability ----------------------------------------------------
    @property
    def obs(self) -> Instruments:
        return NOOP

    def emit(self, kind: str, **data: object) -> None:
        self.emitted.append((self.time, kind, data))

    # Randomness -------------------------------------------------------
    def rng_stream(self, name: str) -> random.Random:
        return random.Random(hash(name) & 0xFFFF)


class FakeNode:
    """Minimal :class:`MemberHost`: just enough facade for the roles."""

    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        self.incarnation = 1
        self.running = True
        self.member_up: List[str] = []
        self.member_down: List[Tuple[str, str]] = []
        self.refutations = 0
        self.ctx: NodeContext  # set by build_daemon

    def self_record(self) -> NodeRecord:
        return NodeRecord(node_id=self.node_id, incarnation=self.incarnation)

    def refute_death(self) -> None:
        self.incarnation += 1
        self.refutations += 1

    def _maybe_sync(self, peer: str) -> bool:
        # Mirrors the facade: the single seam for internal sync requests.
        return self.ctx.informer.maybe_sync(peer)

    def _emit_member_up(self, target: str) -> None:
        self.member_up.append(target)

    def _emit_member_down(self, target: str, reason: str = "timeout") -> None:
        self.member_down.append((target, reason))


class Daemon:
    """One node's wired roles over a fake runtime (no simulator)."""

    def __init__(self, node_id: str = "n0") -> None:
        self.node = FakeNode(node_id)
        self.runtime = FakeRuntime(node_id)
        self.config = HierarchicalConfig()
        self.directory = Directory(node_id)
        self.ctx = NodeContext(
            node=self.node,
            runtime=self.runtime,
            config=self.config,
            directory=self.directory,
            rng=random.Random(42),
            updates=UpdateManager(node_id, self.config.piggyback_depth),
        )
        self.ctx.wire(
            Announcer(self.ctx),
            Receiver(self.ctx),
            Tracker(self.ctx),
            Informer(self.ctx),
            Contender(self.ctx),
        )
        self.node.ctx = self.ctx
        self.directory.upsert(self.node.self_record(), self.runtime.now)
        self.ctx.participate(0)

    # Conveniences ------------------------------------------------------
    def add_peer(
        self,
        node_id: str,
        level: int = 0,
        is_leader: bool = False,
        last_heard: Optional[float] = None,
        incarnation: int = 1,
        backup: Optional[str] = None,
    ) -> NodeRecord:
        """Insert a direct peer (group entry + directory record)."""
        from repro.core.groups import PeerState

        now = self.runtime.now if last_heard is None else last_heard
        record = NodeRecord(node_id=node_id, incarnation=incarnation)
        if level not in self.ctx.groups:
            self.ctx.participate(level)
        group = self.ctx.groups[level]
        group.peers[node_id] = PeerState(
            node_id=node_id,
            last_heard=now,
            is_leader=is_leader,
            incarnation=incarnation,
            backup=backup,
        )
        if is_leader:
            group._leader_ids.add(node_id)
            group._leaders_sorted = None
        self.directory.upsert(record, now)
        return record


@pytest.fixture
def daemon() -> Daemon:
    return Daemon()
