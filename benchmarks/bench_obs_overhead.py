"""Observability overhead benchmark: instruments on vs off, same cluster.

A steady-state A/B harness whose one variable is the observability
layer.  The acceptance claim is that a fully instrumented run — every
counter of the :class:`~repro.obs.wiring.Instruments` bundle live on the
multicast/unicast fabrics and the protocol hot paths — stays within a few
percent of the uninstrumented wall clock, because disabled mode costs one
no-op method call per counted event and enabled mode one attribute load
plus an integer add.

The measurement builds the same hierarchical cluster repeatedly (same
topology, same seed), alternating ``enable_observability``
on and off, lets the hierarchy form off-timer each time, then times a
quiet steady-state window.  Because the true delta (a real counter
increment vs a no-op method call) is tiny, the protocol defends against
timer noise: one discarded warm-up run, ABBA-ordered measurement pairs
so monotone process drift (heap growth) cancels to first order, a GC
collect before every timed window, and the **median** wall per mode.
``overhead`` (enabled median / disabled median - 1) is the acceptance
metric; the committed ``BENCH_obs.json`` records it and ``--check``
gates CI on a noise-tolerant ceiling.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py          # full
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --quick  # CI
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --quick --check
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.metrics.experiment import make_scheme_cluster  # noqa: E402
from repro.obs import MetricsRegistry, enable_observability  # noqa: E402

DEFAULT_OUT = REPO_ROOT / "BENCH_obs.json"

#: ``--check`` ceiling on the quick configuration.  The full 400-node run
#: must show <5% (the PR's acceptance bar, recorded in BENCH_obs.json);
#: the CI quick run times a much shorter window on shared runners, so its
#: gate tolerates timer noise rather than re-litigating the 5% claim.
CHECK_MAX_OVERHEAD = 0.15


def _one_run(
    networks: int, hosts_per_network: int, warmup: float, window: float,
    instrumented: bool,
) -> tuple:
    """One (wall, events, counters-or-None) steady-state measurement."""
    net, _hosts, _nodes = make_scheme_cluster(
        "hierarchical",
        networks,
        hosts_per_network,
        seed=47,
    )
    handle = None
    if instrumented:
        handle = enable_observability(net, MetricsRegistry())
    net.run(until=warmup)
    before = net.sim.events_executed
    gc.collect()
    t0 = time.perf_counter()
    net.run(until=warmup + window)
    wall = time.perf_counter() - t0
    events = net.sim.events_executed - before
    counters = None
    if handle is not None:
        inst = handle.instruments
        counters = {
            "hb_tx": inst.hb_tx.get(),
            "hb_rx": inst.hb_rx.get(),
            "hb_rx_fast": inst.hb_rx_fast.get(),
            "mc_tx": inst.mc_tx.get(),
            "mc_rx": inst.mc_rx.get(),
        }
    del net
    gc.collect()
    return wall, events, counters


def bench_overhead(
    networks: int, hosts_per_network: int, warmup: float, window: float,
    pairs: int = 4,
) -> dict:
    """Steady-state wall-clock, instruments enabled vs disabled.

    Every run uses the fast path; only observability differs.  One
    discarded warm-up run, then ``pairs`` ABBA-ordered enabled/disabled
    pairs (position-balanced, so monotone process drift cancels), median
    wall per mode.  The enabled entry also reports headline counters so
    a reader can see the instruments actually fired during the window.
    """
    results: dict = {
        "nodes": networks * hosts_per_network,
        "warmup_s": warmup,
        "window_s": window,
        "pairs": pairs,
    }
    _one_run(networks, hosts_per_network, warmup, window, False)  # warm-up
    walls: dict = {True: [], False: []}
    events = {}
    counters = None
    for i in range(pairs):
        order = (True, False) if i % 2 == 0 else (False, True)
        for instrumented in order:
            wall, ev, ctr = _one_run(
                networks, hosts_per_network, warmup, window, instrumented
            )
            walls[instrumented].append(wall)
            events[instrumented] = ev
            if ctr is not None:
                counters = ctr
    for mode, instrumented in (("enabled", True), ("disabled", False)):
        wall = statistics.median(walls[instrumented])
        entry = {
            "wall_s": round(wall, 4),
            "walls_s": [round(w, 4) for w in walls[instrumented]],
            "events": events[instrumented],
            "events_per_sec": round(events[instrumented] / wall),
            "sim_rate": round(window / wall, 2),
        }
        if instrumented:
            entry["counters"] = counters
        results[mode] = entry
    results["overhead"] = round(
        results["enabled"]["wall_s"] / results["disabled"]["wall_s"] - 1.0, 4
    )
    return results


def run_check(report: dict) -> int:
    """Gate: the quick run's overhead must stay under the ceiling."""
    current = report["steady_state"]["quick"]["overhead"]
    verdict = "OK" if current <= CHECK_MAX_OVERHEAD else "REGRESSION"
    print(
        f"check: obs overhead {current * 100:.1f}% "
        f"(ceiling {CHECK_MAX_OVERHEAD * 100:.0f}%) -> {verdict}"
    )
    return 0 if current <= CHECK_MAX_OVERHEAD else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small sizes for CI smoke runs"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail (nonzero exit) if overhead exceeds the ceiling",
    )
    parser.add_argument(
        "--out", type=Path, default=DEFAULT_OUT, help="output JSON path"
    )
    args = parser.parse_args(argv)

    if args.quick:
        report = {
            "quick": True,
            "steady_state": {
                "quick": bench_overhead(5, 20, warmup=15.0, window=10.0),
            },
        }
    else:
        report = {
            "quick": False,
            "steady_state": {
                "quick": bench_overhead(5, 20, warmup=15.0, window=10.0),
                "400": bench_overhead(20, 20, warmup=15.0, window=30.0),
            },
        }

    if args.check:
        rc = run_check(report)
        print(json.dumps(report["steady_state"]["quick"], indent=2))
        return rc

    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    for name, r in report["steady_state"].items():
        print(
            f"steady-state {name} ({r['nodes']} nodes): "
            f"overhead {r['overhead'] * 100:.1f}%"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
