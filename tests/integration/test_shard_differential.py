"""Sharded-vs-single differential suite: the determinism contract.

Runs the five pinned golden scenarios of ``test_determinism_guard``,
with the shard count as the axis under test.  The contract is
strict — the merged trace of a sharded run must be **byte-identical**
(same sha256) at shards=1, 2 and 4, and pinned against golden digests so
a semantics drift in the shard kernel cannot hide behind self-consistent
hashes.  One smoke test runs the multiprocessing (spawn) driver and pins
it to the in-process hash, covering the pickling boundary (payload
identity loss, descriptor transport, two-phase barrier protocol).

The golden scenarios all run the single-router ``switched 3x10`` shape
and only ever take nodes away.  ``tree_scenario`` widens the oracle: a
depth-3 router tree (level-1/level-2 channels at TTL >= 3 cross
barriers, four segments so shards=4 splits every one), base loss plus a
lossy/jittery/duplicating link rule, and a timeline that crashes two
ordinary nodes and brings one of them back.

Note these goldens differ from the plain-engine goldens in
``test_determinism_guard``: the shard kernel orders same-instant events
by derivation keys, evaluates all cross-segment traffic at barriers and
draws loss from per-destination-segment streams, so it is its own
deterministic universe — the plain goldens stay untouched.  What the two
universes share is the fabric code itself: ``ShardNetwork`` is a
``Network``, and the last test bounds what the barrier machinery may add
to the plain event count.
"""

from collections import Counter

import pytest

from repro.core.config import HierarchicalConfig
from repro.core.node import HierarchicalNode
from repro.net.network import Network
from repro.protocols.base import deploy
from repro.shard import ShardRun, ShardScenario, run_scenario
from repro.shard.runner import trace_hash
from repro.shard.scenario import LinkRule
from repro.shard.workers import run_scenario_mp

# (label, scheme, seed, chaos)
SCENARIOS = [
    ("hierarchical", "hierarchical", 7, False),
    ("hierarchical", "hierarchical", 8, False),
    ("hierarchical-chaos", "hierarchical", 7, True),
    ("all-to-all", "all-to-all", 7, False),
    ("gossip", "gossip", 7, False),
]

#: Pinned digests of the merged golden traces (shard kernel universe).
#: DESIGN.md §6 ("one fabric") records when and why they were last re-captured.
SHARD_GOLDEN = {
    ("hierarchical", 7): "8e44ba1ddcb9afa1ac19e422145f6e2b76a591fbe7c12898e2d31de67888538a",
    ("hierarchical", 8): "fd46385d5060ff25c711be035e86b379ef9058662dba17a4ddf05e52cb26c415",
    ("hierarchical-chaos", 7): "fa77896ab910fe82ed6b3328e89d9c362383063c56b869456b45b71a793b1f20",
    ("all-to-all", 7): "51d329a2d259315f9371052bdf128f045809fceef5428a0565115e5e11a45096",
    ("gossip", 7): "d7866bdcd122034d303cfdaeea8294763710480042de4f5b4f981f5c382f4f9b",
    ("router-tree", 7): "9a367273e010d4f6e81b41ad90e46d599d657f96b99b6e622ec6b95f39ec57e3",
}

#: Host indices of the tree scenario's two victims: the first crashes at
#: t=30 and rejoins at t=46, the second crashes at t=34 and stays down.
TREE_REJOINER, TREE_CASUALTY = 5, 10


def tree_scenario(seed: int = 7) -> ShardScenario:
    """Depth-3 router tree (4 segments x 4 hosts) with crash *and* recovery.

    Formation on this shape takes until t ~ 23 (one level every few
    seconds up to TTL 7), so the chaos window and the op timeline sit
    after it; t=70 leaves the rejoin two dozen seconds to propagate.
    """
    return ShardScenario(
        builder="router-tree",
        builder_args=(3, 2, 4),
        scheme="hierarchical",
        seed=seed,
        loss_rate=0.02,
        run_until=70.0,
        max_ttl=7,
        ops=(
            (30.0, "stop_node", TREE_REJOINER),
            (30.0, "crash_host", TREE_REJOINER),
            (34.0, "stop_node", TREE_CASUALTY),
            (34.0, "crash_host", TREE_CASUALTY),
            (46.0, "recover_host", TREE_REJOINER),
            (46.0, "start_node", TREE_REJOINER),
        ),
        link_rules=(
            LinkRule(
                src=(0, 8),
                dst=(8, None),
                loss=0.15,
                jitter=0.03,
                reorder=0.2,
                reorder_window=0.1,
                duplicate=0.1,
                dup_lag=0.02,
                start=25.0,
                until=50.0,
            ),
        ),
    )


def assert_same_run(base, other, who):
    """``other`` reproduced ``base`` byte for byte, barrier for barrier."""
    assert other.trace == base.trace, f"{who} trace diverged"
    assert other.hash == base.hash
    # The barrier schedule is shard-count invariant too (the window
    # cutter sees the same global state at every count).
    assert other.barriers == base.barriers
    assert other.exchanged == base.exchanged


@pytest.mark.parametrize(
    "label,scheme,seed,chaos",
    SCENARIOS,
    ids=[f"{label}-{seed}" for label, _, seed, _ in SCENARIOS],
)
def test_shard_count_invariance(label, scheme, seed, chaos):
    """shards=1, 2 and 4 must produce byte-identical merged traces."""
    spec = ShardScenario.golden(scheme, seed, chaos=chaos)
    results = {n: run_scenario(spec, n) for n in (1, 2, 4)}
    base = results[1]
    assert len(base.trace) > 100, "scenario produced suspiciously little activity"
    assert trace_hash(base.trace) == base.hash
    for n in (2, 4):
        assert_same_run(base, results[n], f"shards={n}")
    assert base.hash == SHARD_GOLDEN[(label, seed)], (
        "shard-kernel golden drifted — if the change is intentional, "
        "re-pin SHARD_GOLDEN for every scenario"
    )


def test_router_tree_invariance_through_crash_and_recovery():
    """The widened oracle: multi-level tree, chaos, stop/crash/recover/start."""
    spec = tree_scenario()
    runs = {n: ShardRun(spec, n) for n in (1, 2, 4)}
    results = {n: run.run() for n, run in runs.items()}
    base = results[1]
    kinds = Counter(kind for _t, kind, _node, _data in base.trace)
    assert kinds["host_crashed"] == 2 and kinds["host_recovered"] == 1
    assert kinds["member_down"] > 0 and kinds["leader_elected"] > 4
    for n in (2, 4):
        assert_same_run(base, results[n], f"shards={n}")
    assert_same_run(base, run_scenario_mp(spec, 2), "multiprocessing driver")
    # Every survivor's final view is complete: the rejoiner is back in,
    # the casualty is out, at every shard count.
    hosts = runs[1].hosts
    survivors = sorted(h for i, h in enumerate(hosts) if i != TREE_CASUALTY)
    for n, run in runs.items():
        for host in survivors:
            assert run.node(host).view() == survivors, f"shards={n} {host}"
    assert base.hash == SHARD_GOLDEN[("router-tree", 7)]


def test_sharded_run_balances_events():
    """With 3 segments on 2 shards, both shards must execute real work."""
    spec = ShardScenario.golden("hierarchical", 7)
    res = run_scenario(spec, 2)
    assert len(res.events) == 2
    assert all(count > 1000 for count in res.events)
    # Surplus shards beyond the segment count own nothing and stay idle.
    res4 = run_scenario(spec, 4)
    assert res4.events[3] == 0


def test_multiprocessing_driver_matches_in_process():
    """The spawn-based driver must reproduce the in-process trace."""
    spec = ShardScenario.golden("hierarchical", 7)
    inproc = run_scenario(spec, 2)
    via_mp = run_scenario_mp(spec, 2)
    assert via_mp.hash == inproc.hash
    assert via_mp.trace == inproc.trace
    assert via_mp.events == inproc.events
    assert via_mp.barriers == inproc.barriers
    assert inproc.hash == SHARD_GOLDEN[("hierarchical", 7)]


def test_observability_merge_does_not_move_events():
    """Per-shard metrics merge on flush and never perturb the trace."""
    spec = ShardScenario.golden("hierarchical", 7)
    plain = run_scenario(spec, 2)
    observed = run_scenario(spec, 2, observe=True)
    assert observed.hash == plain.hash
    assert observed.registry is not None
    fam = observed.registry.get("repro_multicast_tx_packets_total")
    assert fam is not None
    assert fam.labels().get() > 0


def test_one_shard_costs_about_one_plain_network():
    """shards=1 is the plain fabric plus barriers — in events, not wall time.

    Count-based, so machine-independent: the same lossless router-tree
    spec on the plain ``Network`` and on one shard must end with the same
    complete views, and the shard may execute at most 1.5x the plain
    event count: the barrier half schedules per destination segment, the
    plain fabric per delay bucket, and nothing else may differ.
    """
    spec = ShardScenario(
        builder="router-tree",
        builder_args=(2, 4, 6),
        scheme="hierarchical",
        seed=31,
        run_until=40.0,
        max_ttl=7,
    )
    topo, hosts = spec.build_topology()
    net = Network(topo, seed=spec.seed)
    nodes = deploy(
        HierarchicalNode, net, hosts, config=HierarchicalConfig(max_ttl=spec.max_ttl)
    )
    net.run(until=spec.run_until)

    run = ShardRun(spec, 1)
    result = run.run()
    assert isinstance(run.worlds[0].net, Network)
    assert sum(result.events) <= 1.5 * net.sim.events_executed
    everyone = sorted(hosts)
    for host in hosts:
        assert nodes[host].view() == everyone
        assert run.node(host).view() == everyone
