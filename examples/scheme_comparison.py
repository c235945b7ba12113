#!/usr/bin/env python
"""Head-to-head comparison of the three membership schemes (mini Figs. 11-13).

Runs all-to-all, gossip and the hierarchical protocol on the same cluster
and failure scenario, printing bandwidth, detection and convergence side by
side.  One cell of the full Figs. 11-13 sweeps that
``python -m repro.cli reproduce fig11 fig12_13`` regenerates.

Run:  python examples/scheme_comparison.py [nodes-per-network] [networks]
"""

import sys

from repro.metrics import SCHEMES, FailureExperiment


def main() -> None:
    per = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    networks = int(sys.argv[2]) if len(sys.argv) > 2 else 3
    n = per * networks
    print(f"cluster: {networks} networks x {per} hosts = {n} nodes")
    print(f"{'scheme':<14} {'bandwidth':>12} {'per-node':>10} {'detect':>8} {'converge':>9}")
    print("-" * 58)
    for scheme in sorted(SCHEMES):
        exp = FailureExperiment(
            scheme,
            networks,
            per,
            seed=1,
            warmup=25.0,
            bandwidth_window=10.0,
            observe=80.0,
        )
        res = exp.run()
        print(
            f"{scheme:<14} "
            f"{res.bandwidth.aggregate_rate / 1e3:>9.1f} KB/s "
            f"{res.bandwidth.per_node_rate / 1e3:>7.2f} KB/s "
            f"{res.detection:>7.2f}s "
            f"{res.convergence:>8.2f}s"
        )
    print(
        "\nhierarchical: lowest bandwidth at equal (constant) detection and "
        "convergence — the paper's conclusion."
    )


if __name__ == "__main__":
    main()
