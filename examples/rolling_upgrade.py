#!/usr/bin/env python
"""Zero-downtime rolling upgrade using graceful departure.

An operator restarts every backend of a replicated service one at a time.
With the graceful ``leave`` extension each departure is announced through
the membership tree instantly (no ``MAX_LOSS`` x period detection gap), so
consumers never dispatch to a node that is going down and the request
stream completes without a single failure.

Run:  python examples/rolling_upgrade.py
"""

from repro.cluster import ConsumerModule, ProviderModule, ServiceSpec
from repro.cluster.gateway import Gateway
from repro.core import HierarchicalNode
from repro.net import Network
from repro.net.builders import build_switched_cluster
from repro.protocols import deploy
from repro.runtime import SimRuntime


def main() -> None:
    topo, hosts = build_switched_cluster(2, 6)
    net = Network(topo, seed=19)
    nodes = deploy(HierarchicalNode, net, hosts)

    backends = hosts[1:5]  # 4 replicas of one service
    providers = {}
    for h in backends:
        p = ProviderModule(SimRuntime(net, h))
        p.register(ServiceSpec.make("api", "0", service_time=0.01))
        p.start()
        providers[h] = p
        nodes[h].register_service(ServiceSpec.make("api", "0"))

    gateway_host = hosts[-1]
    consumer = ConsumerModule(SimRuntime(net, gateway_host), nodes[gateway_host].directory)
    consumer.start()
    gw = Gateway(
        SimRuntime(net, gateway_host),
        executor=consumer.invoke,
        workload=lambda seq: {"service": "api", "partition": 0, "data": seq},
        rate=20.0,
    )

    net.run(until=12.0)  # membership warm-up
    gw.start()

    # Roll through the fleet: leave -> "upgrade" for 5 s -> rejoin.
    t = 15.0
    for h in backends:
        net.sim.call_at(t, nodes[h].leave)
        net.sim.call_at(t + 0.1, providers[h].stop)

        def rejoin(host=h):
            providers[host].start()
            nodes[host].start()
            nodes[host].register_service(ServiceSpec.make("api", "0"))

        net.sim.call_at(t + 5.0, rejoin)
        t += 8.0

    net.run(until=t + 15.0)
    gw.stop()

    print(f"requests issued    : {gw.stats.issued}")
    print(f"requests completed : {gw.stats.completed}")
    print(f"requests failed    : {gw.stats.failed}")
    print(f"mean response time : {1000 * gw.stats.mean_response_time():.1f} ms")
    served = {h: providers[h].served for h in backends}
    print(f"served per backend : {served}")
    assert gw.stats.failed == 0, "a graceful roll must not drop requests"
    print("\nevery backend was upgraded, zero requests failed — the leave "
          "announcement removes a node from every directory in milliseconds.")


if __name__ == "__main__":
    main()
