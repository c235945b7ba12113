#!/usr/bin/env python3
"""The benchmark ledger: four workloads, end-to-end and per-layer metrics.

One workload, the way the driver calls it (runs in this process, which
is fresh, so ``peak_rss_mb`` is the workload's own)::

    python3 benchmarks/ledger/run.py --workload sim_steady_1k --seed 31 --seconds 10 --trace 0

prints every metric by name with its unit and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

The whole ledger (each workload in its own child process, one after the
other; with ``--trace 1`` every workload is run a second time, traced)::

    python3 benchmarks/ledger/run.py [--seed N] [--trace 1] [--out FILE]
    python3 benchmarks/ledger/run.py --selfcheck

Metric names, units, directions and regression bounds are read from
``BENCHMARK.json`` at the root of the checkout; see README.md here.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
DEFAULT_SEED = 31

#: Simulated statistics that two runs of one commit and one seed must
#: reproduce exactly (``peak_rss_mb`` within 5 %): the determinism check.
EXACT_REPEAT = ("rx_bytes_per_node_sim_s", "detection_sim_s", "convergence_sim_s")


def load_contract() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def machine_stamp() -> Dict[str, Any]:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
    }


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def run_workload(args: argparse.Namespace, contract: Dict[str, Any]) -> int:
    names = [w["name"] for w in contract["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; pick one of {names}", file=sys.stderr)
        return 2
    from clock import Stopwatch

    watch = Stopwatch()

    def load() -> Tuple[Any, Any]:
        sys.path.insert(0, os.path.join(ROOT, "src"))
        from spans import Tracer
        from workloads import WORKLOADS

        return Tracer, WORKLOADS[args.workload]

    loaded = watch.time(load)
    tracer_cls, run = loaded.result
    import_s = loaded.wall_s
    tracer = tracer_cls() if args.trace else None
    result = run(args.seed, args.seconds, tracer, watch)
    # Set-up as a user meets it: loading the program, then building the cluster.
    result.end_to_end["setup_s"] += import_s
    result.detail["import_s"] = import_s

    section = "per_layer" if args.trace else "end_to_end"
    values = result.per_layer if args.trace else result.end_to_end
    metrics = {}
    for spec in contract[section]:
        # A layer the workload never enters did no work: zero calls, zero time.
        value = values.get(spec["name"], 0 if args.trace else None)
        if value is None:
            print(f"{args.workload}: metric {spec['name']} was not computed", file=sys.stderr)
            return 1
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    unknown = sorted(set(values) - set(metrics))
    if unknown:
        print(f"{args.workload}: metrics not in BENCHMARK.json: {unknown}", file=sys.stderr)
        return 1

    print(f"# {args.workload}  seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for key, value in result.params.items():
        print(f"#   {key} = {value}")
    for name, m in metrics.items():
        if not args.trace or m["value"]:
            print(f"{name:44s} {m['value']:>16.6g} {m['unit']}")
    for key, value in result.detail.items():
        print(f"  ({key} = {value})")
    print(f"  (operations attempted = {result.attempted}, failed = {result.failed})")
    if tracer and tracer.missing:
        print(f"  (span targets that no longer resolve: {tracer.missing})")
    if tracer and args.trace_out:
        dump: Dict[str, Any] = {"workload": args.workload, "seed": args.seed, **result.spans}
        if args.trace_raw:
            dump["raw"] = tracer.raw()
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump(dump, fh)
    print("DETAIL " + json.dumps({"params": result.params, "detail": result.detail}))
    print(
        json.dumps(
            {
                "correct": result.failed == 0,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


# ----------------------------------------------------------------------
# The whole ledger, one child process per workload
# ----------------------------------------------------------------------
def run_child(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, Any]:
    """Run one workload in a fresh interpreter; its parsed last two lines."""
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} (trace={trace}) exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    out.update(json.loads(lines[-2][len("DETAIL "):]))
    return out


def run_set(contract: Dict[str, Any], seed: int, seconds: int, trace: int) -> Dict[str, Any]:
    rows: Dict[str, Any] = {}
    for spec in contract["workloads"]:
        name = spec["name"]
        print(f"running {name} ...", file=sys.stderr, flush=True)
        row = run_child(name, seed, seconds, 0)
        if trace:
            traced = run_child(name, seed, seconds, 1)
            row["per_layer"] = traced["metrics"]
            # The daemons idle on timers, so their cost is CPU, not wall time.
            key = "window_cpu_s" if "window_cpu_s" in row["detail"] else "timed_wall_s"
            row["traced_over_untraced"] = traced["detail"][key] / row["detail"][key]
        rows[name] = row
    return rows


def print_set(rows: Dict[str, Any]) -> None:
    for name, row in rows.items():
        share = row["failed"] / row["attempted"]
        print(f"\n== {name}: ops_failed_share = {share:g} ({row['failed']}/{row['attempted']})")
        for key, value in row["params"].items():
            print(f"   # {key} = {value}")
        for metric, m in row["metrics"].items():
            print(f"   {metric:42s} {m['value']:>16.6g} {m['unit']}")
        for key, value in row["detail"].items():
            print(f"     ({key} = {value})")
        if "per_layer" in row:
            print(f"   traced / untraced time of the timed region, measured: "
                  f"{row['traced_over_untraced']:.3f}")
            for metric, m in row["per_layer"].items():
                if m["value"]:
                    print(f"   {metric:42s} {m['value']:>16.6g} {m['unit']}")


def selfcheck(contract: Dict[str, Any], seed: int, seconds: int) -> int:
    """Two full sets of the same code must agree within the benchmark's own bounds."""
    first = run_set(contract, seed, seconds, 0)
    second = run_set(contract, seed, seconds, 0)
    bad = 0
    print(f"{'workload':18s} {'metric':26s} {'first':>14s} {'second':>14s} {'diff':>8s} {'bound':>6s}")
    for name in first:
        simulated = name.startswith("sim_")
        for spec in contract["end_to_end"]:
            a = first[name]["metrics"][spec["name"]]["value"]
            b = second[name]["metrics"][spec["name"]]["value"]
            diff = abs(a - b) / abs(a)
            bound = spec["bound"]
            if simulated and spec["name"] in EXACT_REPEAT:
                bound = 0.0
            elif spec["name"] == "peak_rss_mb":
                bound = 0.05
            ok = diff <= bound
            bad += not ok
            print(f"{name:18s} {spec['name']:26s} {a:14.6g} {b:14.6g} {diff:8.2%} {bound:6.2f}"
                  f"{'' if ok else '  <-- outside bound'}")
        if simulated:
            a, b = first[name]["detail"]["events"], second[name]["detail"]["events"]
            ok = a == b
            bad += not ok
            print(f"{name:18s} {'events (exact)':26s} {a:14d} {b:14d}"
                  f"{'' if ok else '  <-- differs'}")
        for row in (first[name], second[name]):
            if row["failed"]:
                bad += 1
                print(f"{name:18s} {row['failed']} of {row['attempted']} operations failed")
    print("selfcheck", "FAILED" if bad else "ok")
    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None,
                        help="length of the steady windows (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="write the aggregated spans of a traced run here")
    parser.add_argument("--trace-raw", action="store_true",
                        help="with --trace-out: include the raw span list")
    parser.add_argument("--out", help="whole ledger: write the stamped result set here as JSON")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run two full sets and compare them within the bounds")
    args = parser.parse_args(argv)
    contract = load_contract()
    if args.seconds is None:
        args.seconds = contract["run_seconds"]
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload:
        return run_workload(args, contract)
    if args.selfcheck:
        return selfcheck(contract, args.seed, args.seconds)
    stamp = {**machine_stamp(), "seed": args.seed, "seconds": args.seconds}
    rows = run_set(contract, args.seed, args.seconds, args.trace)
    print(json.dumps(stamp))
    print_set(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"stamp": stamp, "workloads": rows}, fh, indent=1)
    return 1 if any(row["failed"] for row in rows.values()) else 0


if __name__ == "__main__":
    raise SystemExit(main())
