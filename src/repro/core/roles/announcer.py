"""Announcer role: periodic heartbeats on every joined channel (Fig. 10).

The announcer owns the interned-heartbeat cache of the protocol hot-path
engine: a heartbeat is identical between state changes, so the frozen
payload is reused while its signature (self-record identity, election
flags, designated backup, update sequence number) holds.  Receivers
exploit the stable identity for the no-change fast path
(:meth:`~repro.core.roles.receiver.Receiver.channel_handler`).

Observability: ``hb_tx`` increments here and nowhere else.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.core.heartbeat import Heartbeat

if TYPE_CHECKING:
    from repro.cluster.directory import NodeRecord
    from repro.core.roles.context import NodeContext

__all__ = ["Announcer"]

#: Interned-heartbeat cache entry: the signature under which the frozen
#: payload stays valid, plus the payload itself.
_CacheEntry = Tuple["NodeRecord", bool, bool, Optional[str], int, Heartbeat]


class Announcer:
    """Sends this node's presence on every channel it participates in."""

    def __init__(self, ctx: "NodeContext") -> None:
        self.ctx = ctx
        # Interned outgoing heartbeat per level: (record, is_leader,
        # suppressed, backup, update_seq) -> frozen Heartbeat instance.
        self.hb_cache: Dict[int, _CacheEntry] = {}

    def reset(self) -> None:
        self.hb_cache.clear()

    def drop_level(self, level: int) -> None:
        self.hb_cache.pop(level, None)

    def heartbeat_tick(self) -> None:
        ctx = self.ctx
        if not ctx.node.running:
            return
        for level in ctx.levels:
            self.send_heartbeat(level)

    def send_heartbeat(self, level: int) -> None:
        ctx = self.ctx
        group = ctx.groups.get(level)
        if group is None:
            return
        record = ctx.node.self_record()
        backup = group.my_backup if group.i_am_leader else None
        seq = ctx.updates.current_seq(level)
        # Interned payload: reuse the frozen instance while its
        # signature holds (see module docstring).
        cached = self.hb_cache.get(level)
        if (
            cached is not None
            and cached[0] is record
            and cached[1] == group.i_am_leader
            and cached[2] == group.suppressed
            and cached[3] == backup
            and cached[4] == seq
        ):
            hb = cached[5]
        else:
            hb = Heartbeat(
                record=record,
                level=level,
                is_leader=group.i_am_leader,
                suppressed=group.suppressed,
                backup=backup,
                update_seq=seq,
            )
            self.hb_cache[level] = (
                record, group.i_am_leader, group.suppressed, backup, seq, hb,
            )
        ctx.runtime.obs.hb_tx.inc()
        ctx.runtime.publish(
            ctx.config.channel(level),
            ttl=ctx.config.ttl_for_level(level),
            kind="heartbeat",
            payload=hb,
            size=ctx.config.message_size(1),
        )
