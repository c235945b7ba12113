"""The paper's contribution: the topology-adaptive hierarchical protocol.

Modules
-------
:mod:`repro.core.config`
    :class:`HierarchicalConfig` and the Fig. 7 configuration-file format.
:mod:`repro.core.heartbeat`, :mod:`repro.core.groups`, :mod:`repro.core.election`
    Heartbeat payloads, per-channel group views, and the bully election
    with suppression and backup fast path.
:mod:`repro.core.updates`
    Update messages: sequence numbers, piggyback loss recovery, relays.
:mod:`repro.core.roles`
    The daemon's five thread roles (paper Fig. 10): announcer, receiver,
    status tracker, informer, contender, over a shared ``NodeContext``.
:mod:`repro.core.node`
    :class:`HierarchicalNode` — the facade wiring the roles together and
    preserving the public protocol API.
:mod:`repro.core.proxy`
    The membership proxy protocol for multi-data-center deployments.
:mod:`repro.core.service_api`
    ``MService`` / ``MClient``, the paper's Section 5 library API.
"""

from repro.core.config import HierarchicalConfig, parse_config_text, render_config_text
from repro.core.node import HierarchicalNode
from repro.core.heartbeat import Heartbeat
from repro.core.updates import UpdateManager, UpdateMessage, UpdateOp
from repro.core.groups import GroupState, PeerState
from repro.core.election import Decision, decide
from repro.core.proxy import MembershipProxy, ServiceSummary, install_proxy_forwarding
from repro.core.service_api import MClient, MService, Machine, MachineList

__all__ = [
    "HierarchicalConfig",
    "parse_config_text",
    "render_config_text",
    "HierarchicalNode",
    "Heartbeat",
    "UpdateManager",
    "UpdateMessage",
    "UpdateOp",
    "GroupState",
    "PeerState",
    "Decision",
    "decide",
    "MembershipProxy",
    "ServiceSummary",
    "install_proxy_forwarding",
    "MClient",
    "MService",
    "Machine",
    "MachineList",
]
