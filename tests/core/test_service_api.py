"""Tests for the MService / MClient library API (paper Section 5)."""

import pytest

from repro.core import MClient, MService
from repro.net import Network
from repro.net.builders import build_switched_cluster

CONFIG = """
*SYSTEM
SHM_KEY = 999
MAX_TTL = 4
MCAST_ADDR = 239.255.0.2
MCAST_PORT = 10050
MCAST_FREQ = 1
MAX_LOSS = 5

*SERVICE
[HTTP]
    PARTITION = 0
    Port = 8080
[Cache]
    PARTITION = 2
"""


def make_deployment(n=4):
    topo, hosts = build_switched_cluster(1, n)
    net = Network(topo, seed=1)
    services = {}
    for h in hosts:
        ms = MService(net, h, configuration=CONFIG)
        ms.run()
        services[h] = ms
    return net, hosts, services


class TestMService:
    def test_config_file_applies(self):
        net, hosts, services = make_deployment(2)
        ms = services[hosts[0]]
        assert ms.config.shm_key == 999
        assert ms.config.max_ttl == 4

    def test_services_from_config_published(self):
        net, hosts, services = make_deployment(3)
        net.run(until=10.0)
        client = MClient(net, hosts[2], 999)
        machines = client.lookup_service("HTTP", "0")
        assert [m.node_id for m in machines] == sorted(hosts)
        assert machines[0].get("Port") is None  # params are spec params, not attrs

    def test_defaults_when_no_configuration(self):
        topo, hosts = build_switched_cluster(1, 2)
        net = Network(topo, seed=1)
        ms = MService(net, hosts[0])
        assert ms.config.shm_key == 999  # library default

    def test_control_updates_parameters(self):
        topo, hosts = build_switched_cluster(1, 2)
        net = Network(topo, seed=1)
        ms = MService(net, hosts[0])
        ms.control("max_loss", 3)
        assert ms.config.max_loss == 3
        assert ms.config.fail_timeout == 3.0

    def test_control_converts_text_arguments(self):
        # control("max_loss", "3") used to store the string, and the next
        # tracker tick died multiplying it by the heartbeat period.
        net, hosts, services = make_deployment(2)
        ms = services[hosts[0]]
        ms.control("max_loss", "3")
        ms.control("heartbeat_period", "0.5")
        ms.control("detector", " Phi-Accrual ")
        assert ms.config.max_loss == 3 and isinstance(ms.config.max_loss, int)
        assert ms.config.heartbeat_period == 0.5
        assert ms.config.detector == "phi-accrual"
        net.run(until=10.0)
        assert len(ms.node.view()) == 2

    def test_control_rejects_unconvertible_text_before_applying(self):
        net, hosts, services = make_deployment(2)
        ms = services[hosts[0]]
        before = ms.config
        with pytest.raises(ValueError):
            ms.control("max_loss", "three")
        assert ms.config is before

    def test_control_rejects_unknown_command(self):
        topo, hosts = build_switched_cluster(1, 2)
        net = Network(topo, seed=1)
        ms = MService(net, hosts[0])
        with pytest.raises(ValueError):
            ms.control("bogus", 1)

    def test_register_service_visible_cluster_wide(self):
        net, hosts, services = make_deployment(3)
        net.run(until=10.0)
        services[hosts[0]].register_service("Retriever", "1-3")
        net.run(until=11.0)
        client = MClient(net, hosts[2], 999)
        machines = client.lookup_service("Retriever", "2")
        assert [m.node_id for m in machines] == [hosts[0]]

    def test_update_and_delete_value(self):
        net, hosts, services = make_deployment(2)
        net.run(until=10.0)
        services[hosts[0]].update_value("Port", "9090")
        net.run(until=11.0)
        client = MClient(net, hosts[1], 999)
        m = [x for x in client.lookup_service("HTTP") if x.node_id == hosts[0]][0]
        assert m.get("Port") == "9090"
        services[hosts[0]].delete_value("Port")
        net.run(until=12.0)
        m = [x for x in client.lookup_service("HTTP") if x.node_id == hosts[0]][0]
        assert m.get("Port") is None

    def test_run_is_idempotent(self):
        net, hosts, services = make_deployment(2)
        services[hosts[0]].run()
        services[hosts[0]].run()
        net.run(until=5.0)

    def test_stop_removes_shm(self):
        net, hosts, services = make_deployment(2)
        services[hosts[0]].stop()
        with pytest.raises(KeyError):
            MClient(net, hosts[0], 999)

    def test_graceful_leave_through_api(self):
        net, hosts, services = make_deployment(3)
        net.run(until=10.0)
        services[hosts[1]].leave()
        net.run(until=11.0)  # no 5 s detection wait
        client = MClient(net, hosts[0], 999)
        assert hosts[1] not in client.members()
        with pytest.raises(KeyError):
            MClient(net, hosts[1], 999)


class TestMClient:
    def test_requires_local_daemon(self):
        net, hosts, services = make_deployment(2)
        with pytest.raises(KeyError):
            MClient(net, hosts[0], 12345)  # wrong key

    def test_lookup_regex_service(self):
        net, hosts, services = make_deployment(2)
        net.run(until=10.0)
        client = MClient(net, hosts[0], 999)
        machines = client.lookup_service("HTTP|Cache")
        assert len(machines) == 2  # both hosts provide both services

    def test_lookup_partition_regex(self):
        net, hosts, services = make_deployment(2)
        net.run(until=10.0)
        client = MClient(net, hosts[0], 999)
        assert client.lookup_service("Cache", "2")
        assert client.lookup_service("Cache", "3") == []

    def test_machine_attrs_include_hardware(self):
        net, hosts, services = make_deployment(2)
        net.run(until=10.0)
        client = MClient(net, hosts[0], 999)
        m = client.lookup_service("HTTP")[0]
        assert m.get("cpu_model") == "Pentium III"
        assert m.partitions == (0, 2)

    def test_members(self):
        net, hosts, services = make_deployment(3)
        net.run(until=10.0)
        client = MClient(net, hosts[0], 999)
        assert client.members() == sorted(hosts)

    def test_client_sees_failures(self):
        net, hosts, services = make_deployment(3)
        net.run(until=10.0)
        services[hosts[1]].stop()
        net.crash_host(hosts[1])
        net.run(until=25.0)
        client = MClient(net, hosts[0], 999)
        assert hosts[1] not in client.members()
        assert all(m.node_id != hosts[1] for m in client.lookup_service("HTTP"))
