"""Cluster-wide hierarchy introspection.

Debugging and administration helpers that assemble a global picture of the
membership tree from the per-node states — the moral equivalent of the
administrator pointing a monitoring tool at the cluster.  Only used by
tooling (CLI, examples, tests); protocol code never needs a global view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.core.node import HierarchicalNode

__all__ = ["GroupInfo", "hierarchy_snapshot", "render_hierarchy", "hierarchy_invariant_errors"]


@dataclass(frozen=True)
class GroupInfo:
    """One observed group: a leader and the members following it."""

    level: int
    leader: str
    members: tuple[str, ...]


def hierarchy_snapshot(nodes: Mapping[str, HierarchicalNode]) -> List[GroupInfo]:
    """Groups of the current hierarchy, derived from who follows whom.

    A group at level *l* is identified by its leader: every node
    participating at level *l* whose ``leader_of(l)`` names that leader is
    a member.  Overlapping groups appear once per leader, matching the
    paper's view that overlapped groups sharing a leader "are deemed as
    one group represented by" it.
    """
    following: Dict[tuple[int, str], set[str]] = {}
    for host, node in nodes.items():
        if not node.running:
            continue
        for level in node.levels():
            leader = node.leader_of(level)
            if leader is None:
                continue
            following.setdefault((level, leader), set()).add(host)
    out = [
        GroupInfo(level=level, leader=leader, members=tuple(sorted(members)))
        for (level, leader), members in following.items()
    ]
    return sorted(out, key=lambda g: (g.level, g.leader))


def render_hierarchy(nodes: Mapping[str, HierarchicalNode]) -> str:
    """ASCII rendering of the tree, one line per group, bottom-up."""
    lines = []
    for group in hierarchy_snapshot(nodes):
        indent = "  " * group.level
        members = ", ".join(m for m in group.members if m != group.leader)
        lines.append(
            f"{indent}L{group.level} [{group.leader}]"
            + (f" <- {members}" if members else " (alone)")
        )
    return "\n".join(lines)


def hierarchy_invariant_errors(nodes: Mapping[str, HierarchicalNode]) -> List[str]:
    """Check the structural invariants; returns human-readable violations.

    * every running node participates at level 0;
    * participation at level l+1 implies leadership at level l;
    * a leader never sees another leader on the same channel;
    * every node's level-0 group has some leader once formation settles.
    """
    errors: List[str] = []
    for host, node in nodes.items():
        if not node.running:
            continue
        levels = node.levels()
        if 0 not in levels:
            errors.append(f"{host}: does not participate at level 0")
        for level in levels:
            if level > 0 and not node.is_leader(level - 1):
                errors.append(
                    f"{host}: participates at L{level} without leading L{level - 1}"
                )
            if node.is_leader(level):
                seen = node._ctx.groups[level].visible_leaders()
                if seen:
                    errors.append(
                        f"{host}: leads L{level} but sees leaders {seen}"
                    )
        if node.leader_of(0) is None:
            errors.append(f"{host}: no level-0 leader in sight")
    return errors
