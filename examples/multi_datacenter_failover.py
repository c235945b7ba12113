#!/usr/bin/env python
"""Multi-data-center failover through membership proxies (paper Fig. 14).

Two data centers, 90 ms apart, each running the full search stack and a
pair of membership proxies sharing an external IP.  The document-retrieval
tier of data center A dies mid-run; queries transparently fail over to
data center B and come back when the service recovers.

Run:  python examples/multi_datacenter_failover.py
"""

from repro.apps import SearchDeployment
from repro.cluster.gateway import Gateway
from repro.runtime import SimRuntime

WARMUP = 15.0


def main() -> None:
    dep = SearchDeployment(networks=3, hosts_per_network=6, seed=11)
    net = dep.network
    dep.warm_up(WARMUP)

    leaders = [(p.dc, p.host) for p in dep.proxies if p.is_leader]
    print("proxy leaders:", leaders)
    print("external addresses:", {dc: net.transport.address_owner(vip) for dc, vip in dep.VIP.items()})

    engine = dep.engines["dcA"]
    gw = Gateway(
        SimRuntime(net, engine.host),
        executor=lambda query: engine.query(query),
        workload=lambda seq: {"query": f"q{seq}"},
        rate=10.0,
    )
    gw.start()
    net.sim.call_at(WARMUP + 20.0, dep.fail_doc_service, "dcA")
    net.sim.call_at(WARMUP + 40.0, dep.recover_doc_service, "dcA")
    net.run(until=WARMUP + 60.0)
    gw.stop()

    rt = {int(s - WARMUP): v for s, v in gw.stats.response_time_series()}
    thr = {int(s - WARMUP): v for s, v in gw.stats.throughput_series()}
    print("\n sec | resp (ms) | throughput")
    print("-----+-----------+-----------")
    for sec in range(0, 60, 3):
        ms = f"{1000 * rt[sec]:9.1f}" if sec in rt else "        -"
        print(f" {sec:3d} | {ms} | {thr.get(sec, 0):3d}")
    print(
        f"\nno requests lost: issued={gw.stats.issued} "
        f"completed={gw.stats.completed} failed={gw.stats.failed}"
    )
    print(
        "during 20-40s the doc tier of dcA is dead; responses are served by "
        "dcB via the proxies at WAN latency (>200 ms), exactly the paper's "
        "Fig. 14 behaviour."
    )


if __name__ == "__main__":
    main()
