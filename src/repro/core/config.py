"""Configuration for the hierarchical membership service.

Includes a parser for the paper's configuration-file format (Fig. 7):

.. code-block:: text

    *SYSTEM
    SHM_KEY     = 999
    MAX_TTL     = 4
    MCAST_ADDR  = 239.255.0.2
    MCAST_PORT  = 10050
    MCAST_FREQ  = 1
    MAX_LOSS    = 5

    *SERVICE
    [HTTP]
        PARTITION = 0
        Port = 8080
    [Cache]
        PARTITION = 2

The ``*SYSTEM`` section maps onto :class:`HierarchicalConfig`; each
``[Name]`` block in ``*SERVICE`` becomes a
:class:`~repro.cluster.service.ServiceSpec` whose non-``PARTITION`` keys are
service parameters published as key-value pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.cluster.service import ServiceSpec
from repro.detect import DETECTORS
from repro.protocols.base import ProtocolConfig

__all__ = [
    "HierarchicalConfig",
    "Knob",
    "KNOBS",
    "parse_config_text",
    "render_config_text",
]

#: Per-level growth of the declaration timeout: higher-level groups use
#: larger timeouts so a lower-level re-election wins the race against the
#: higher-level purge (Section 3.1.2, Timeout Protocol).
LEVEL_TIMEOUT_SLOPE = 0.5
#: Backstop lifetime of relayed entries, as a multiple of ``fail_timeout``;
#: explicit remove-updates are the fast path.
RELAYED_TIMEOUT_FACTOR = 4.0
#: How long (in multiples of ``fail_timeout``) a death certificate blocks
#: re-adding the same incarnation of a removed node; long enough for the
#: removal to converge cluster-wide, short enough not to delay partition
#: healing.
TOMBSTONE_QUARANTINE_FACTOR = 2.0


@dataclass(frozen=True)
class HierarchicalConfig(ProtocolConfig):
    """Tunables of the tree-based protocol.

    In addition to the common knobs (heartbeat period, ``max_loss``,
    member size), the hierarchical scheme has:

    ``base_channel``
        The single administrator-specified multicast channel; per-level
        channels are derived as ``f"{base_channel}/L{level}"`` with TTL
        ``level + 1`` ("All other channels can be derived from the base
        channel and a TTL value", Section 3.1.1).
    ``channel_overrides``
        "For maximum control flexibility, our implementation also allows
        administrators to specify multicast channels at each level" —
        a ``level -> channel name`` mapping taking precedence over the
        derived names.
    ``max_ttl``
        Group formation stops once the TTL reaches this bound.
    ``piggyback_depth``
        Each update message carries up to this many previous updates so
        the receiver tolerates that many consecutive losses (paper: 3).
        The paper's updates are one-member changes, so the carried ops
        are kept to the bytes of this many ``member_size`` records; a
        bigger update (a bootstrap flood, a subtree re-announce) is left
        out, and a receiver that loses it polls.
    ``election_delay``
        How long a node waits hearing no leader before contending.
    ``min_sync_interval``
        Rate limit for bootstrap/poll full-directory exchanges per peer.
    ``shm_key``
        Key of the shared-memory yellow page (used by the MClient API to
        find the daemon's directory, as in Fig. 9).
    """

    base_channel: str = "239.255.0.2:10050"
    channel_overrides: Tuple[Tuple[int, str], ...] = ()
    max_ttl: int = 4
    piggyback_depth: int = 3
    election_delay: float = 2.5
    min_sync_interval: float = 2.0
    shm_key: int = 999

    # ------------------------------------------------------------------
    def channel(self, level: int) -> str:
        """Multicast channel name for groups at ``level``.

        Administrator overrides win; otherwise the name is derived from
        the base channel.
        """
        if level < 0 or level > self.max_level:
            raise ValueError(f"level {level} outside [0, {self.max_level}]")
        for lv, name in self.channel_overrides:
            if lv == level:
                return name
        return f"{self.base_channel}/L{level}"

    def with_channel_override(self, level: int, name: str) -> "HierarchicalConfig":
        """Return a config with one per-level channel pinned by the admin."""
        overrides = tuple((lv, nm) for lv, nm in self.channel_overrides if lv != level)
        return replace(self, channel_overrides=overrides + ((level, name),))

    def ttl_for_level(self, level: int) -> int:
        """TTL value used on the level's channel (level 0 -> TTL 1)."""
        return level + 1

    @property
    def max_level(self) -> int:
        """Highest group level (TTL of ``max_ttl``)."""
        return self.max_ttl - 1

    def level_timeout(self, level: int) -> float:
        """Silence threshold before a direct peer on ``level`` is dead.

        Grows with the level so a leader re-election at level *l* finishes
        before the level *l+1* group purges the subtree.
        """
        return self.fail_timeout * (1.0 + LEVEL_TIMEOUT_SLOPE * level)

    @property
    def relayed_timeout(self) -> float:
        """Backstop lifetime of relayed (vouched-for) entries."""
        return self.fail_timeout * RELAYED_TIMEOUT_FACTOR

    @property
    def tombstone_quarantine(self) -> float:
        """How long a death certificate blocks same-incarnation re-adds."""
        return self.fail_timeout * TOMBSTONE_QUARANTINE_FACTOR


class Knob(NamedTuple):
    """One configurable field and every surface that can set it.

    The Fig. 7 file parser and renderer, ``MService.control``, the
    ``repro.cli daemon`` flags and the surfaces table of
    ``docs/DETECTORS.md`` are all derived from :data:`KNOBS`.
    """

    #: :class:`HierarchicalConfig` field
    attr: str
    #: text -> field value; raises ``ValueError`` on a bad value
    parse: Callable[[str], Any]
    #: ``*SYSTEM`` key
    key: str
    #: field value -> ``*SYSTEM`` text
    render: Callable[[Any], str]
    help: str
    #: rendered even at its default (the Fig. 7 header keys)
    always: bool = False
    #: ``MService.control`` accepts it
    control: bool = False
    #: ``repro.cli daemon`` exposes it as ``--<attr, dashed>``
    flag: bool = False
    #: ``*SYSTEM`` text -> field value where the file's unit differs
    file_parse: Optional[Callable[[str], Any]] = None
    #: the values ``parse`` accepts, when it is a closed set
    choices: Optional[Tuple[str, ...]] = None

    @property
    def flag_name(self) -> str:
        return "--" + self.attr.replace("_", "-")


def detector_name(text: str) -> str:
    """Normalise a detector name, rejecting unknown ones at parse time."""
    name = text.strip().lower()
    if name not in DETECTORS:
        raise ValueError(f"unknown DETECTOR {name!r}; pick one of {sorted(DETECTORS)}")
    return name


#: shortest float text (``1.0`` -> ``"1"``), the file's number style
_g = "{:g}".format

#: Every knob, in ``*SYSTEM`` rendering order.  ``MCAST_ADDR`` /
#: ``MCAST_PORT`` / ``CHANNEL_L<k>`` compose ``base_channel`` and
#: ``channel_overrides`` and are handled by hand in the parser and renderer.
KNOBS: Tuple[Knob, ...] = (
    Knob("shm_key", int, "SHM_KEY", str,
         "key of the shared-memory yellow page", always=True),
    Knob("max_ttl", int, "MAX_TTL", str,
         "TTL bound at which group formation stops", always=True, control=True),
    Knob("heartbeat_period", float, "MCAST_FREQ", lambda period: _g(1.0 / period),
         "seconds between heartbeats (the file holds the frequency)",
         always=True, control=True, file_parse=lambda v: 1.0 / float(v)),
    Knob("max_loss", int, "MAX_LOSS", str,
         "missed heartbeats before a peer is declared dead", always=True, control=True),
    Knob("member_size", int, "MEMBER_SIZE", str,
         "modelled bytes of one member description"),
    Knob("piggyback_depth", int, "PIGGYBACK", str,
         "previous updates carried by each update message, within the"
         " bytes of that many member descriptions"),
    Knob("detector", detector_name, "DETECTOR", str,
         "failure-detection strategy (default: spec/counter)",
         control=True, flag=True, choices=tuple(sorted(DETECTORS))),
    Knob("probe_period", float, "PROBE_PERIOD", _g,
         "swim: probe round period, seconds", control=True, flag=True),
    Knob("probe_timeout", float, "PROBE_TIMEOUT", _g,
         "swim: per-probe ack timeout, seconds", control=True, flag=True),
    Knob("indirect_probes", int, "INDIRECT_PROBES", str,
         "swim: number of indirect ping-req relays", control=True, flag=True),
    Knob("suspicion_timeout", float, "SUSPICION_TIMEOUT", _g,
         "swim: suspicion-to-declaration delay, seconds", control=True, flag=True),
    Knob("phi_threshold", float, "PHI_THRESHOLD", _g,
         "phi-accrual: declaration threshold", control=True, flag=True),
    Knob("phi_window", int, "PHI_WINDOW", str,
         "phi-accrual: inter-arrival window length", control=True, flag=True),
)

_BY_KEY: Dict[str, Knob] = {knob.key: knob for knob in KNOBS}


def parse_config_text(text: str) -> Tuple[HierarchicalConfig, List[ServiceSpec]]:
    """Parse the Fig. 7 configuration format.

    Unknown ``*SYSTEM`` keys are rejected (configuration typos should fail
    loudly); service blocks accept arbitrary parameter keys.
    """
    system: Dict[str, str] = {}
    services: List[Tuple[str, Dict[str, str]]] = []
    section = None
    current_service: Dict[str, str] | None = None
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.upper() == "*SYSTEM":
            section = "system"
            continue
        if line.upper() == "*SERVICE":
            section = "service"
            continue
        if section == "service" and line.startswith("[") and line.endswith("]"):
            current_service = {}
            services.append((line[1:-1].strip(), current_service))
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw_line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if section == "system":
            system[key.upper()] = value
        elif section == "service":
            if current_service is None:
                raise ValueError("service parameter outside a [Service] block")
            current_service[key] = value
        else:
            raise ValueError(f"config line before any section: {raw_line!r}")

    config = HierarchicalConfig()
    addr = system.pop("MCAST_ADDR", None)
    port = system.pop("MCAST_PORT", None)
    if addr is not None or port is not None:
        base = f"{addr or '239.255.0.2'}:{port or '10050'}"
        config = replace(config, base_channel=base)
    # Administrator-pinned per-level channels: CHANNEL_L<k> = <name>.
    overrides = []
    for key in sorted(k for k in system if k.startswith("CHANNEL_L")):
        level_str = key[len("CHANNEL_L") :]
        if not level_str.isdigit():
            raise ValueError(f"malformed channel override key {key!r}")
        overrides.append((int(level_str), system.pop(key)))
    if overrides:
        config = replace(config, channel_overrides=tuple(overrides))
    for key, value in system.items():
        knob = _BY_KEY.get(key)
        if knob is None:
            raise ValueError(f"unknown *SYSTEM key {key!r}")
        config = replace(config, **{knob.attr: (knob.file_parse or knob.parse)(value)})

    specs: List[ServiceSpec] = []
    for name, params in services:
        params = dict(params)
        partition = params.pop("PARTITION", "0")
        specs.append(ServiceSpec.make(name, partition, **params))
    return config, specs


def render_config_text(config: HierarchicalConfig, services: List[ServiceSpec]) -> str:
    """Inverse of :func:`parse_config_text` (round-trips the Fig. 7 format)."""
    # Non-``always`` rows are emitted only when they differ from the
    # default, so pre-existing configs round-trip to identical text.
    defaults = HierarchicalConfig()
    lines = ["*SYSTEM"]
    for knob in KNOBS:
        value = getattr(config, knob.attr)
        if knob.always or value != getattr(defaults, knob.attr):
            lines.append(f"{knob.key} = {knob.render(value)}")
    # Fig. 7 order: the base channel follows SHM_KEY and MAX_TTL, the
    # first two (always rendered) rows.
    addr, _, port = config.base_channel.partition(":")
    lines[3:3] = [f"MCAST_ADDR = {addr}", f"MCAST_PORT = {port}"]
    for level, name in sorted(config.channel_overrides):
        lines.append(f"CHANNEL_L{level} = {name}")
    lines += ["", "*SERVICE"]
    for spec in services:
        lines.append(f"[{spec.name}]")
        lines.append(f"    PARTITION = {spec.partition_spec()}")
        for key, value in sorted(spec.params.items()):
            lines.append(f"    {key} = {value}")
    return "\n".join(lines) + "\n"
