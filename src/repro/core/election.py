"""Leader election decisions (bully algorithm with backup fast path).

The paper elects with the bully algorithm on unique node IDs ("The member
with the lowest ID becomes the group leader"), refined by two rules:

1. *Suppression* — "If there is already a group leader, a node will not
   participate [in] the leader election in any groups with the same
   multicast address and TTL value."  A node that can see a leader stands
   aside even if its own ID is lower (Fig. 4's overlap cases).
2. *No mutual leaders* — "our group leader election algorithm guarantees
   that a group leader cannot see other leaders at the same level."  When
   two leaders come into view of each other (e.g. after a partition
   heals), the higher-ID one steps down.

Plus the availability fast path: "The backup leader is randomly chosen by
the primary group leader and it will take over the leadership if the
primary leader fails," skipping the election delay entirely — applied
where the death is observed, in ``Tracker.handle_peer_death``.

Decisions are pure functions of a :class:`~repro.core.groups.GroupState`,
which keeps them unit-testable without a simulator.
"""

from __future__ import annotations

from enum import Enum

from repro.core.groups import GroupState

__all__ = ["Decision", "decide"]


class Decision(str, Enum):
    """Outcome of one election evaluation on one channel."""

    STAY = "stay"  # no change in posture
    BECOME_LEADER = "become_leader"
    STEP_DOWN = "step_down"


def decide(
    state: GroupState,
    self_id: str,
    now: float,
    election_delay: float,
) -> Decision:
    """Evaluate the election for one channel.

    Mutates ``state``'s bookkeeping fields (``suppressed``,
    ``leaderless_since``) and returns the action to take.  Must be called
    periodically (the status-tracker tick) and after peer changes.
    """
    visible = state.visible_leaders()

    if state.i_am_leader:
        # Rule 2: two leaders must not see each other; lowest ID wins.
        if visible and visible[0] < self_id:
            return Decision.STEP_DOWN
        return Decision.STAY

    if visible:
        # Rule 1: a visible leader suppresses contention.
        state.suppressed = True
        state.leaderless_since = None
        return Decision.STAY

    # No leader in sight: contend.
    state.suppressed = False
    if state.leaderless_since is None:
        state.leaderless_since = now
        return Decision.STAY
    if now - state.leaderless_since < election_delay:
        return Decision.STAY
    if state.contenders_below(self_id):
        return Decision.STAY  # a lower-ID contender should win; wait
    return Decision.BECOME_LEADER

