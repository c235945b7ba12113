"""Determinism guards: seeded runs are bit-for-bit reproducible.

For the same seed a run produces the **identical** trace event sequence
every time, and the five golden SHA-256 hashes below pin that sequence
across commits — through the timer wheel, the cached multicast delivery
plans with batched per-delay-bucket events, the interned heartbeats with
the identity-based no-change receive path, and the deadline-heap
directory purges.

This is the contract documented in docs/PERFORMANCE.md; if a change ever
moves scheduling order, loss-draw order, purge order, or election timing,
these tests are the tripwire.
"""

import pytest

from repro.metrics.experiment import make_scheme_cluster


def run_30_node_trace(seed: int = 7, scheme: str = "hierarchical", chaos: bool = False):
    """3 networks x 10 hosts at 2% loss, crash + observe.

    With ``chaos``, an active fault plan covers every effect.  Chaos draws
    happen at send time in delivery-plan order, from the dedicated
    ``net.chaos`` stream — so the golden hash pins the draw order with
    loss, jitter, reordering and duplication being injected mid-run.
    """
    net, hosts, nodes = make_scheme_cluster(scheme, 3, 10, seed=seed, loss_rate=0.02)
    if chaos:
        plan = net.ensure_fault_plan()
        plan.partition(hosts[:10], hosts[10:], start=15.0, until=30.0, symmetric=False)
        plan.add(
            src=hosts[10:20], dst=hosts[20:], loss=0.2, jitter=0.05,
            reorder=0.3, reorder_window=0.2, duplicate=0.1, dup_lag=0.05,
            start=15.0, until=30.0,
        )
    net.run(until=20.0)
    victim = hosts[5]
    nodes[victim].stop()
    net.crash_host(victim)
    net.run(until=50.0)
    return [(r.time, r.kind, r.node, r.data) for r in net.trace]


def test_same_seed_reproduces_identical_trace():
    trace = run_30_node_trace()
    assert len(trace) > 100  # the run actually did protocol work
    assert trace == run_30_node_trace()


def test_different_seeds_diverge():
    # Sanity check that the guard is sensitive at all: with loss enabled,
    # different seeds must not produce the same trace.
    assert run_30_node_trace(seed=7) != run_30_node_trace(seed=8)


def test_installing_inactive_fault_plan_changes_nothing():
    # A plan whose rules never match consumes zero randomness: the trace
    # must be byte-identical to a run with no plan at all.
    def run(with_plan):
        net, hosts, nodes = make_scheme_cluster(
            "hierarchical", 3, 10, seed=7, loss_rate=0.02
        )
        if with_plan:
            net.ensure_fault_plan().add(src="nonexistent-host", loss=1.0)
        net.run(until=30.0)
        return [(r.time, r.kind, r.node, r.data) for r in net.trace]

    assert run(False) == run(True)


def run_30_node_observed_trace(instrumented: bool, jsonl_path=None):
    """The 30-node crash run with the observability layer attached.

    Observability (PR: obs layer) extends the pure-optimization contract:
    instruments never draw randomness, never schedule protocol work, and
    sinks are passive subscribers — so enabling any of it must not move a
    single trace event.
    """
    from repro.obs import JsonlTraceSink, MetricsRegistry, enable_observability

    net, hosts, nodes = make_scheme_cluster(
        "hierarchical", 3, 10, seed=7, loss_rate=0.02
    )
    sink = None
    if instrumented:
        enable_observability(net, MetricsRegistry())
    if jsonl_path is not None:
        sink = net.trace.attach_sink(JsonlTraceSink(jsonl_path))
    net.run(until=20.0)
    victim = hosts[5]
    nodes[victim].stop()
    net.crash_host(victim)
    net.run(until=50.0)
    if sink is not None:
        sink.close()
    return [(r.time, r.kind, r.node, r.data) for r in net.trace]


def test_enabling_observability_changes_nothing():
    plain = run_30_node_observed_trace(instrumented=False)
    observed = run_30_node_observed_trace(instrumented=True)
    assert len(plain) > 100
    assert plain == observed


def test_jsonl_sink_attached_changes_nothing_and_is_byte_identical(tmp_path):
    plain = run_30_node_observed_trace(instrumented=False)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    with_sink = run_30_node_observed_trace(instrumented=True, jsonl_path=a)
    assert plain == with_sink
    run_30_node_observed_trace(instrumented=True, jsonl_path=b)
    # Two same-seed runs stream byte-identical files.
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_bytes()) > 0


# ----------------------------------------------------------------------
# Golden traces: cross-refactor byte-identity
#
# The hashes below were captured on the monolithic pre-roles codebase
# (single-class ``HierarchicalNode``, protocols scheduling directly on
# ``repro.sim``); the three hierarchical ones were re-captured once when
# updates began to carry only news (no re-announce on a climb into an
# empty level, piggyback entries expiring after the level timeout), and
# seed 7 and chaos-7 once more when the bootstrap flood took the relay
# rule and leaders began to refute only for members they still hear,
# and all three once more when the piggyback kept to the bytes of
# ``piggyback_depth`` one-member updates, and once more when a relay
# point's newcomer announcement took the relay rule and a fresh leader's
# pull stopped waiting on the sync limiter (DESIGN.md §6).  Any structural
# change must reproduce them bit-for-bit:
# a changed hash means the "pure code motion" claim is false (a
# scheduling call moved, an RNG draw was added or reordered, a trace emit
# shifted).  Unlike the pairwise tests above, these pin the traces across
# *commits*, not just across runs of one commit.
# ----------------------------------------------------------------------

GOLDEN_SHA256 = {
    ("hierarchical", 7): (
        "fc10d2fd08b95200a9b534ec486a21eb3c9bfd8380a9cadcc38b315e47a57a28"
    ),
    ("hierarchical", 8): (
        "17506ea940d9df46456af1d57848f5006c2018085846c2b40809b4849759f5af"
    ),
    ("hierarchical-chaos", 7): (
        "d442b218347309a5d5b1f59c2539aee826ad558097f6b037a09bcee17b527693"
    ),
    ("all-to-all", 7): (
        "324c46ec37a32b83763025db31bbb51dc4386b6826d592a0332d0cf64c359a45"
    ),
    ("gossip", 7): (
        "61fbe0d8e75fe052d575aa8fe3453f51be50659dec64a9f8d40cb668e8b2a589"
    ),
}


def _trace_hash(trace) -> str:
    import hashlib

    return hashlib.sha256(repr(trace).encode()).hexdigest()


def test_golden_trace_hierarchical_seed7():
    assert _trace_hash(run_30_node_trace()) == GOLDEN_SHA256[("hierarchical", 7)]


def test_golden_trace_hierarchical_seed8():
    trace = run_30_node_trace(seed=8)
    assert _trace_hash(trace) == GOLDEN_SHA256[("hierarchical", 8)]


def test_golden_trace_hierarchical_chaos():
    trace = run_30_node_trace(chaos=True)
    assert _trace_hash(trace) == GOLDEN_SHA256[("hierarchical-chaos", 7)]


def test_golden_trace_all_to_all():
    trace = run_30_node_trace(scheme="all-to-all")
    assert _trace_hash(trace) == GOLDEN_SHA256[("all-to-all", 7)]


def test_golden_trace_gossip():
    trace = run_30_node_trace(scheme="gossip")
    assert _trace_hash(trace) == GOLDEN_SHA256[("gossip", 7)]


#: How each golden trace is produced, by its key in GOLDEN_SHA256.
GOLDEN_RUNS = {
    ("hierarchical", 7): {},
    ("hierarchical", 8): {"seed": 8},
    ("hierarchical-chaos", 7): {"chaos": True},
    ("all-to-all", 7): {"scheme": "all-to-all"},
    ("gossip", 7): {"scheme": "gossip"},
}


@pytest.mark.parametrize("key", list(GOLDEN_RUNS), ids=lambda key: f"{key[0]}-{key[1]}")
def test_golden_traces_do_not_see_slot_numbers(key, monkeypatch):
    # Every directory on a network shares one node-slot table, numbered
    # in the order ids first appear.  Reserve the cluster's ids in reverse
    # before deploy, so every slot differs from the plain run's: the
    # golden hashes must not move.
    from repro.cluster.directory import Directory, NodeRecord
    from repro.metrics import experiment
    from repro.runtime import SimRuntime

    deploy = experiment.deploy
    holders = []

    def deploy_on_reversed_slots(node_cls, net, hosts, **kwargs):
        holder = Directory("reserver", SimRuntime(net, "reserver").slot_table)
        assert holder.insert_new([NodeRecord(h) for h in reversed(hosts)], 0.0) == len(hosts)
        holders.append(holder)  # holds the slots for the whole run
        assert [net.slot_table.index[h] for h in hosts] == list(range(len(hosts)))[::-1]
        return deploy(node_cls, net, hosts, **kwargs)

    monkeypatch.setattr(experiment, "deploy", deploy_on_reversed_slots)
    assert _trace_hash(run_30_node_trace(**GOLDEN_RUNS[key])) == GOLDEN_SHA256[key]
    assert len(holders) == 1
