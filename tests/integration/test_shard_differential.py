"""Sharded-vs-single differential suite: the determinism contract.

Runs the five pinned golden scenarios of ``test_determinism_guard``,
with the shard count as the axis under test.  The contract is
strict — the merged trace of a sharded run must be **byte-identical**
(same sha256) at shards=1, 2 and 4, and pinned against golden digests so
a semantics drift in the shard kernel cannot hide behind self-consistent
hashes.  One smoke test runs the multiprocessing (spawn) driver and pins
it to the in-process hash, covering the pickling boundary (payload
identity loss, descriptor transport, two-phase barrier protocol).

Note these goldens differ from the plain-engine goldens in
``test_determinism_guard``: the shard kernel orders same-instant events
by derivation keys, evaluates all cross-segment traffic at barriers and
draws loss from per-destination streams, so it is its own deterministic
universe — the plain goldens stay untouched.
"""

import pytest

from repro.shard import ShardScenario, run_scenario
from repro.shard.runner import trace_hash
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
SHARD_GOLDEN = {
    ("hierarchical", 7): "3254e8cfdab09fd8b981b89cae4920d80149867c3f7476f502ff59072ee2d6e1",
    ("hierarchical", 8): "295067279537df5ccc4249244b76a3e542d39516251e138e1ecd4b07a845613e",
    ("hierarchical-chaos", 7): "a11e49e087747b445c532a984be90bea8de709357803349866469575ce672493",
    ("all-to-all", 7): "65b032568dddfe2b5d7668c9c970bbb5f99c96c91b1194e4919f626959827ed9",
    ("gossip", 7): "1db74e754d45d6ced601f7b009eb1c92e8edec5355ea53078dc52ff2e4f9bb52",
}


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
        assert results[n].trace == base.trace, f"shards={n} trace diverged"
        assert results[n].hash == base.hash
        # The barrier schedule is shard-count invariant too (the window
        # cutter sees the same global state at every count).
        assert results[n].barriers == base.barriers
        assert results[n].exchanged == base.exchanged
    assert base.hash == SHARD_GOLDEN[(label, seed)], (
        "shard-kernel golden drifted — if the change is intentional, "
        "re-pin SHARD_GOLDEN for every scenario"
    )


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
