"""Extension — incremental scalability of the hierarchical protocol.

The paper motivates a protocol "incrementally scalable from a small
cluster to a large-scale cluster with thousands of nodes".  The 2005
evaluation stopped at the testbed's 100 machines; the simulator lets us
push the actual protocol (not just the closed forms) to thousands of
nodes and check that the paper's properties hold unchanged:

* complete views everywhere after formation,
* constant detection time (max_loss x period) regardless of size,
* convergence tracking detection within the propagation delay,
* per-node bandwidth independent of cluster size.

Two topology families cover the sweep:

* **switched clusters** (k networks x 20 hosts behind one router) — the
  paper's Section 6 testbed shape, used for 100-400 nodes exactly as the
  original BENCH_scale rows measured them;
* **router trees** (``build_router_tree``) for 1k-10k nodes — a balanced
  tree keeps every membership group at ~10-20 members whatever the total
  size, which is the regime the protocol is designed for (group size
  bounded by the topology, cost per node flat).  A flat switched cluster
  at 10k would put all 500 leaders in one level-1 group, the
  topology-design anti-pattern the paper's hierarchy exists to avoid.

Standalone usage::

    PYTHONPATH=src python benchmarks/bench_scale.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_scale.py --quick    # <= 400 nodes
    PYTHONPATH=src python benchmarks/bench_scale.py --quick --check
    PYTHONPATH=src python benchmarks/bench_scale.py --profile
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import pytest

from conftest import print_table
from repro.metrics import FailureExperiment

SIZES = [(5, 20), (10, 20), (20, 20)]  # (networks, hosts) -> 100..400 nodes

#: Full sweep rows.  ``switched`` rows reuse the paper-testbed shape and
#: the exact methodology of the original 100-400 BENCH rows; ``tree``
#: rows scale out on balanced router trees.  ``max_ttl`` must cover the
#: tree diameter (leaf-to-leaf crosses 2 x depth routers) or the top
#: groups cannot form and views stay partitioned.
ROWS = [
    {"nodes": 100, "kind": "switched", "networks": 5, "per": 20},
    {"nodes": 200, "kind": "switched", "networks": 10, "per": 20},
    {"nodes": 400, "kind": "switched", "networks": 20, "per": 20},
    {"nodes": 1000, "kind": "tree", "depth": 3, "branching": 10, "per": 10,
     "max_ttl": 7},
    {"nodes": 2000, "kind": "tree", "depth": 3, "branching": 10, "per": 20,
     "max_ttl": 7},
    {"nodes": 10000, "kind": "tree", "depth": 4, "branching": 10, "per": 10,
     "max_ttl": 9},
]

#: ``--quick`` (CI) keeps the rows that finish in seconds.
QUICK_MAX_NODES = 400

SEED = 31
#: Formation runs off-timer; the timed steady-state window starts after
#: the bootstrap announce floods have drained.
WARMUP = {"switched": 20.0, "tree": 25.0}
WINDOW = 30.0

#: ``--check`` compares each row's throughput *relative to the 100-node
#: row* against the same ratio in the committed JSON.  Ratios cancel the
#: machine's absolute speed, so the gate is portable; what it pins is
#: the shape of the scale curve — a superlinear per-event degradation
#: shows up as a falling ratio long before any absolute floor would trip.
CHECK_TOLERANCE = 0.70

DEFAULT_OUT = REPO_ROOT / "BENCH_scale.json"


def build_row_cluster(row: dict):
    """Instantiate one sweep row; returns (net, hosts, nodes, label)."""
    from repro.core.config import HierarchicalConfig
    from repro.core.node import HierarchicalNode
    from repro.metrics.experiment import make_scheme_cluster
    from repro.net.builders import build_router_tree
    from repro.net.network import Network
    from repro.protocols.base import deploy
    from repro.sim.trace import Trace

    if row["kind"] == "switched":
        net, hosts, nodes = make_scheme_cluster(
            "hierarchical", row["networks"], row["per"], seed=SEED
        )
        label = f"switched-cluster {row['networks']}x{row['per']}"
    else:
        topo, hosts = build_router_tree(
            depth=row["depth"], branching=row["branching"],
            hosts_per_leaf=row["per"],
        )
        # retain=False: a 10k-node formation emits ~10^8 member_up
        # records; retaining them would dominate memory for no value.
        net = Network(topo, seed=SEED, trace=Trace(retain=False))
        cfg = HierarchicalConfig(max_ttl=row["max_ttl"])
        nodes = deploy(HierarchicalNode, net, hosts, config=cfg)
        label = (
            f"router-tree depth={row['depth']} branching={row['branching']} "
            f"hosts_per_leaf={row['per']}"
        )
    return net, hosts, nodes, label


def bench_row(row: dict, profile: bool = False) -> dict:
    """Form the hierarchy off-timer, then time a pure steady-state window."""
    gc.collect()
    gc.disable()  # the sim allocates in bursts; GC pauses just add noise
    try:
        t0 = time.perf_counter()
        net, hosts, nodes, label = build_row_cluster(row)
        warmup = WARMUP[row["kind"]]
        net.run(until=warmup)
        formation_wall = time.perf_counter() - t0
        formation_events = net.sim.events_executed
        complete = sum(
            1 for h in hosts if len(nodes[h].directory.snapshot()) == len(hosts)
        )
        before = net.sim.events_executed
        prof = None
        if profile:
            import cProfile

            prof = cProfile.Profile()
            prof.enable()
        t0 = time.perf_counter()
        net.run(until=warmup + WINDOW)
        wall = time.perf_counter() - t0
        if prof is not None:
            prof.disable()
            import pstats

            pstats.Stats(prof).sort_stats("cumulative").print_stats(25)
        events = net.sim.events_executed - before
    finally:
        gc.enable()
    # Uniform row schema: every size reports the same keys, so --check
    # gates and downstream tooling can compare like with like.  The
    # failure-phase fields are filled in by run_failure_row where that
    # experiment runs (switched rows, full sweep) and stay None elsewhere.
    return {
        "nodes": row["nodes"],
        "topology": label,
        "formation_wall_s": round(formation_wall, 4),
        "formation_events": formation_events,
        "formation_events_per_sec": round(formation_events / formation_wall),
        "complete_views": complete,
        "steady_wall_s": round(wall, 4),
        "steady_events": events,
        "events_per_sec": round(events / wall),
        "detection_s": None,
        "convergence_s": None,
        "observers": None,
    }


def run_failure_row(row: dict) -> dict:
    """Detection/convergence via the Section 6 kill-one-node experiment.

    Only meaningful (and affordable) on the paper-shape switched rows;
    the tree rows report throughput only.
    """
    exp = FailureExperiment(
        "hierarchical", row["networks"], row["per"], seed=SEED,
        warmup=20.0, bandwidth_window=10.0, observe=30.0,
    )
    r = exp.run()
    return {
        "detection_s": round(r.detection, 3) if r.detection else None,
        "convergence_s": round(r.convergence, 3) if r.convergence else None,
        "observers": r.observers,
    }


def row_scenario(row: dict, retain_trace: bool = True):
    """The sharded-kernel scenario spec matching one sweep row's formation."""
    from repro.shard import ShardScenario

    warmup = WARMUP[row["kind"]]
    if row["kind"] == "switched":
        return ShardScenario(
            builder="switched", builder_args=(row["networks"], row["per"]),
            scheme="hierarchical", seed=SEED, run_until=warmup,
            retain_trace=retain_trace,
        )
    return ShardScenario(
        builder="router-tree",
        builder_args=(row["depth"], row["branching"], row["per"]),
        scheme="hierarchical", seed=SEED, run_until=warmup,
        max_ttl=row["max_ttl"], retain_trace=retain_trace,
    )


def bench_row_sharded(row: dict, shards: int) -> dict:
    """Formation through the sharded kernel (opt-in via --shards).

    On a single-core host this measures barrier overhead, not speed-up;
    the deterministic-merge contract is what the numbers certify.
    """
    from repro.shard import run_scenario

    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        res = run_scenario(row_scenario(row, retain_trace=False), shards)
        wall = time.perf_counter() - t0
    finally:
        gc.enable()
    total = sum(res.events)
    return {
        "shards": shards,
        "formation_wall_s": round(wall, 4),
        "events_per_shard": list(res.events),
        "events_per_sec": round(total / wall),
        "barriers": res.barriers,
        "cross_shard_descriptors": res.exchanged,
    }


#: The shard gate's wall-clock tolerance: shards=2 may cost at most 10%
#: over shards=1 (pure barrier/merge overhead on a single core).
SHARD_WALL_TOLERANCE = 1.10


def check_shard_differential() -> int:
    """CI gate: shards=2 vs shards=1 on the 400-node formation scenario.

    Fails on any trace-hash mismatch (the determinism contract) or on a
    >10% wall-clock regression of the sharded run over the single-shard
    run.
    """
    from repro.shard import run_scenario

    row = next(r for r in ROWS if r["nodes"] == 400)
    spec = row_scenario(row)
    walls = {}
    results = {}
    for n in (1, 2):
        gc.collect()
        t0 = time.perf_counter()
        results[n] = run_scenario(spec, n)
        walls[n] = time.perf_counter() - t0
    hash_ok = results[2].hash == results[1].hash
    ratio = walls[2] / walls[1]
    wall_ok = ratio <= SHARD_WALL_TOLERANCE
    print(
        f"shard-check 400 nodes: shards=1 {walls[1]:.2f}s, shards=2 {walls[2]:.2f}s "
        f"({ratio:.2f}x, tolerance {SHARD_WALL_TOLERANCE:.2f}x) -> "
        f"{'OK' if wall_ok else 'REGRESSION'}"
    )
    print(
        f"shard-check trace hash: {results[1].hash[:16]}... vs "
        f"{results[2].hash[:16]}... -> {'MATCH' if hash_ok else 'MISMATCH'}"
    )
    return 0 if (hash_ok and wall_ok) else 1


def check_report(report: dict, reference_path: Path) -> int:
    """Gate the scale-curve shape against the committed reference JSON."""
    if not reference_path.exists():
        print(f"--check: no reference at {reference_path}; nothing to compare")
        return 0
    ref_sizes = json.loads(reference_path.read_text())["sizes"]
    cur_sizes = report["sizes"]
    base = "100"
    if base not in cur_sizes or base not in ref_sizes:
        print("--check: 100-node baseline row missing; cannot normalise")
        return 1
    cur_base = cur_sizes[base]["events_per_sec"]
    ref_base = ref_sizes[base]["events_per_sec"]
    failed = False
    for size, cur in sorted(cur_sizes.items(), key=lambda kv: int(kv[0])):
        ref = ref_sizes.get(size)
        if ref is None or size == base:
            continue
        cur_ratio = cur["events_per_sec"] / cur_base
        ref_ratio = ref["events_per_sec"] / ref_base
        floor = ref_ratio * CHECK_TOLERANCE
        ok = cur_ratio >= floor
        failed |= not ok
        print(
            f"check {size:>6} nodes: {cur_ratio:.2f}x of 100-node rate "
            f"(reference {ref_ratio:.2f}x, floor {floor:.2f}x) -> "
            f"{'OK' if ok else 'REGRESSION'}"
        )
    return 1 if failed else 0


def run_sweep():
    out = {}
    for networks, per in SIZES:
        exp = FailureExperiment(
            "hierarchical",
            networks,
            per,
            seed=31,
            warmup=20.0,
            bandwidth_window=10.0,
            observe=30.0,
        )
        out[networks * per] = exp.run()
    return out


def test_scale_to_hundreds_of_nodes(one_shot):
    results = one_shot(run_sweep)

    print_table(
        "Scale: the actual protocol at 100-400 nodes",
        ["nodes", "detect (s)", "converge (s)", "agg KB/s", "per-node KB/s", "observers"],
        [
            (
                n,
                f"{r.detection:.2f}",
                f"{r.convergence:.2f}",
                f"{r.bandwidth.aggregate_rate / 1e3:.0f}",
                f"{r.bandwidth.per_node_rate / 1e3:.2f}",
                f"{r.observers}/{n - 1}",
            )
            for n, r in sorted(results.items())
        ],
    )

    for n, r in results.items():
        # Complete: every survivor observed the failure.
        assert r.observers == n - 1
        # Constant detection; convergence within two heartbeat periods.
        assert 5.0 <= r.detection <= 7.0
        assert r.convergence - r.detection < 2.0
    # Per-node bandwidth flat across a 4x size increase.
    per_node = {n: r.bandwidth.per_node_rate for n, r in results.items()}
    assert per_node[400] / per_node[100] < 1.3
    # Aggregate therefore ~linear.
    assert 3.0 < results[400].bandwidth.aggregate_rate / results[100].bandwidth.aggregate_rate < 5.0


def main(argv: list[str] | None = None) -> int:
    """Standalone mode: time the sweep and emit ``BENCH_scale.json``.

    ``nodes -> {wall-clock, events/sec, detection, convergence}`` gives
    future PRs an absolute scalability trajectory to regress against.
    """
    parser = argparse.ArgumentParser(
        description="Scalability sweep (100-10,000 nodes) emitting BENCH_scale.json"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help=f"CI mode: rows up to {QUICK_MAX_NODES} nodes, skip failure runs",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="compare the scale curve against the committed JSON; "
             "nonzero exit on regression",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="cProfile the largest row's steady window (top-25 cumulative)",
    )
    parser.add_argument(
        "--shards", type=int, default=0, metavar="N",
        help="also run each row's formation through the sharded kernel "
             "with N shards (opt-in; single-core hosts measure overhead, "
             "not speed-up)",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)

    rows = [r for r in ROWS if not args.quick or r["nodes"] <= QUICK_MAX_NODES]
    largest = max(r["nodes"] for r in rows)
    report: dict = {"quick": args.quick, "sizes": {}}
    for row in rows:
        n = row["nodes"]
        entry = bench_row(row, profile=args.profile and n == largest)
        if row["kind"] == "switched" and not args.quick:
            entry.update(run_failure_row(row))
        if args.shards > 0:
            entry["shard"] = bench_row_sharded(row, args.shards)
        report["sizes"][str(n)] = entry
        print(
            f"{n} nodes ({entry['topology']}): formation {entry['formation_wall_s']:.1f}s "
            f"({entry['formation_events_per_sec']:,} ev/s), "
            f"steady {entry['steady_wall_s']:.2f}s wall, "
            f"{entry['events_per_sec']:,} events/s, "
            f"views {entry['complete_views']}/{n}"
        )
        if "shard" in entry:
            s = entry["shard"]
            print(
                f"  sharded x{s['shards']}: formation {s['formation_wall_s']:.1f}s, "
                f"{s['barriers']} barriers, "
                f"{s['cross_shard_descriptors']} cross-shard descriptors"
            )

    if args.check:
        rc = check_report(report, DEFAULT_OUT)
        # The sharded-kernel gate rides the CI quick profile: hash
        # equality plus bounded barrier overhead at 400 nodes.
        if args.quick:
            rc |= check_shard_differential()
        return rc
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
