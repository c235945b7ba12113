"""The paper's evaluation as one ordered table of figures.

:data:`FIGURES` maps each figure name to a deterministic function that
regenerates it and returns a JSON-ready dict: ``params`` (the inputs that
fix the run) and ``tables``, each ``{"title", "columns", "fmt", "rows"}``
with values in the units the headers name and the format spec
:func:`render_table` prints each column with.  ``python -m repro.cli
reproduce`` writes them to ``EXPERIMENTS.json``, which EXPERIMENTS.md
quotes and the tier-1 suite checks.

Figs. 12 and 13 are one experiment, as in the paper's Section 6.4: one
failure run per cell yields the earliest (detection) and the latest
(convergence) ``member_down`` record.  Section 4's cross-validation reads
Fig. 11's bandwidth cells, cached per process so the two share one sweep.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache
from typing import Any, Callable, Dict, List, Sequence

from repro.analysis import HOP_LATENCY, MODELS, AllToAllOverheadModel, HierarchicalModel
from repro.apps import SearchDeployment
from repro.chaos import ChaosScenario
from repro.chaos.invariants import CHECK_PERIOD, false_failure_bound
from repro.chaos.runner import LOSS_RATE
from repro.cluster.gateway import Gateway
from repro.core import HierarchicalConfig, HierarchicalNode
from repro.metrics.collectors import BandwidthStats, accuracy_timeseries
from repro.metrics.experiment import SCHEMES, FailureExperiment, make_scheme_cluster
from repro.net import Network
from repro.net.builders import build_switched_cluster
from repro.net.faults import DEGRADED_LINK
from repro.protocols import ProtocolConfig, deploy
from repro.runtime import SimRuntime

__all__ = ["CHAOS_SEEDS", "FIGURES", "render", "render_table"]

Entry = Dict[str, Any]
SCHEME_NAMES = sorted(SCHEMES)
#: The testbed sweep of Figs. 11-13: 1-5 networks of 20 hosts.
NETWORKS, PER_NETWORK = [1, 2, 3, 4, 5], 20
#: The seeds of the chaos table.
CHAOS_SEEDS = [7, 11, 23, 42, 99]


def _table(title: str, spec: str, rows: Sequence[Sequence[Any]]) -> Dict[str, Any]:
    """A table from ``"header:fmt|header:fmt|..."`` and its rows."""
    columns = [column.rsplit(":", 1) for column in spec.split("|")]
    return {"title": title, "columns": [header for header, _ in columns],
            "fmt": [fmt for _, fmt in columns], "rows": [list(row) for row in rows]}


def _spread(values: Sequence[float]) -> List[float]:
    """Median, min and max of an odd number of runs (each one of the values)."""
    ordered = sorted(values)
    return [ordered[len(ordered) // 2], ordered[0], ordered[-1]]


def _entry(params: Dict[str, Any], **tables: Dict[str, Any]) -> Entry:
    return {"params": params, "tables": tables}


def _by_size(title: str, fmt: str, cells: Dict[tuple, Any]) -> Dict[str, Any]:
    """A nodes x scheme table over the Figs. 11-13 sweep."""
    spec = "nodes:d|" + "|".join(f"{scheme}:{fmt}" for scheme in SCHEME_NAMES)
    rows = [[k * PER_NETWORK] + [cells[(s, k)] for s in SCHEME_NAMES] for k in NETWORKS]
    return _table(title, spec, rows)


def fig02() -> Entry:
    """All-to-all overhead: the per-packet model to 4000 nodes, checked by simulation."""
    sizes, sim_sizes = [500, 1000, 1500, 2000, 2500, 3000, 3500, 4000], [20, 40, 80]
    model = AllToAllOverheadModel()
    measured = {}
    for n in sim_sizes:
        net, hosts, _nodes = make_scheme_cluster("all-to-all", 1, n, seed=1)
        net.run(until=10.0)
        net.meter.reset()
        net.run(until=20.0)
        measured[n] = net.meter.packet_rate(hosts[0], "rx", duration=10.0)
    rows = [[n, model.cpu_percent(n), model.packets_per_second(n),
             model.bandwidth_bytes_per_second(n) / 1e6, model.fast_ethernet_fraction(n)]
            for n in sizes]
    return _entry(
        {"model_sizes": sizes, "sim_sizes": sim_sizes, "seed": 1, "window": 10.0,
         **dataclasses.asdict(model)},
        model=_table("Fig. 2: all-to-all overhead vs cluster size (1024 B heartbeats @ 1 Hz)",
                     "nodes:d|CPU %:.2f|rx pkts/s:.0f|rx MB/s:.2f|FastEth share:.1%", rows),
        validation=_table("Fig. 2 validation: simulated vs model packet rate",
                          "nodes:d|simulated pkts/s:.1f|model pkts/s:.1f",
                          [[n, measured[n], model.packets_per_second(n)] for n in sim_sizes]))


@lru_cache(maxsize=None)
def _bandwidth_cell(scheme: str, networks: int) -> BandwidthStats:
    """One Fig. 11 cell: steady-state receive bandwidth, seed 1."""
    return FailureExperiment(scheme, networks, PER_NETWORK, seed=1, warmup=20.0,
                             bandwidth_window=10.0, observe=0.0).run().bandwidth


def sec4() -> Entry:
    """Closed-form bandwidth, detection, BDT and BCT, checked against Fig. 11's cells."""
    sizes, group = [20, 64, 128, 256, 512, 1024, 2048, 4096], PER_NETWORK
    config = ProtocolConfig()
    models = {name: MODELS[name](config, group) for name in SCHEME_NAMES}
    bdt = [[n] + [v for m in models.values()
                  for v in (m.aggregate_bandwidth(n) / 1e6, m.detection_time(n), m.bdt(n) / 1e6)]
           for n in sizes]
    validation = []
    for s in SCHEME_NAMES:
        for networks in (2, 5):
            n = networks * PER_NETWORK
            simulated = _bandwidth_cell(s, networks).aggregate_rate
            modelled = models[s].aggregate_bandwidth(n)
            validation.append([s, n, simulated / 1e3, modelled / 1e3, simulated / modelled - 1])
    return _entry(
        {"sizes": sizes, "member_size": config.member_size, "freq": 1.0 / config.heartbeat_period,
         "max_loss": config.max_loss, "group_size": group, "gossip_fanout": config.gossip_fanout,
         "gossip_mistake_prob": config.gossip_mistake_prob, "hop_latency": HOP_LATENCY,
         "detector": config.detector, "phi_threshold": config.phi_threshold,
         "suspicion_timeout": config.suspicion_timeout, "probe_timeout": config.probe_timeout,
         "probe_period": config.probe_period},
        bdt=_table("Sec. 4: bandwidth / detection / BDT (fixed 1 Hz heartbeats)",
                   "nodes:d|" + "|".join(f"{s} MB/s:.2f|{s} det(s):.1f|{s} BDT(MB):.1f"
                                         for s in SCHEME_NAMES), bdt),
        bct=_table("Sec. 4: bandwidth-convergence-time products (MB)",
                   "nodes:d|" + "|".join(f"{s}:.1f" for s in SCHEME_NAMES),
                   [[n] + [m.bct(n) / 1e6 for m in models.values()] for n in sizes]),
        validation=_table("Sec. 4 validation: simulated (Fig. 11 cells) vs analytical"
                          " aggregate bandwidth (KB/s)",
                          "scheme:|nodes:d|simulated:.1f|model:.1f|simulated vs model:+.1%",
                          validation))


def fig11() -> Entry:
    """Aggregate incoming heartbeat bandwidth of the three schemes, 20-100 nodes."""
    cells = {(s, k): _bandwidth_cell(s, k) for s in SCHEME_NAMES for k in NETWORKS}
    return _entry(
        {"networks": NETWORKS, "hosts_per_network": PER_NETWORK, "seed": 1, "warmup": 20.0,
         "bandwidth_window": 10.0},
        aggregate=_by_size("Fig. 11: aggregated bandwidth (MB/s) vs number of nodes", ".3f",
                           {key: stats.aggregate_rate / 1e6 for key, stats in cells.items()}),
        per_node=_by_size("Fig. 11 (derived): per-node bandwidth (KB/s)", ".2f",
                          {key: stats.per_node_rate / 1e3 for key, stats in cells.items()}))


def fig12_13() -> Entry:
    """One kill-one-node sweep: detection (earliest record) and convergence (latest)."""
    runs = {(s, k): FailureExperiment(s, k, PER_NETWORK, seed=3, warmup=25.0, observe=90.0,
                                      bandwidth_window=0.0).run()
            for s in SCHEME_NAMES for k in NETWORKS}
    gap = {key: None if None in (r.detection, r.convergence) else r.convergence - r.detection
           for key, r in runs.items()}
    return _entry(
        {"networks": NETWORKS, "hosts_per_network": PER_NETWORK, "seed": 3, "warmup": 25.0,
         "observe": 90.0},
        detection=_by_size("Fig. 12: failure detection time (s) vs number of nodes", ".2f",
                           {key: r.detection for key, r in runs.items()}),
        convergence=_by_size("Fig. 13: view convergence time (s) vs number of nodes", ".2f",
                             {key: r.convergence for key, r in runs.items()}),
        gap=_by_size("Fig. 13 (derived): convergence - detection gap (s)", ".3f", gap))


def fig14() -> Entry:
    """The search engine in two data centers; DC A's doc tier fails at 20 s, back at 40 s."""
    warmup, fail_at, recover_at, end, rate = 15.0, 20.0, 40.0, 60.0, 10.0
    dep = SearchDeployment(networks=3, hosts_per_network=6, seed=4)
    net = dep.network
    dep.warm_up(warmup)
    engine = dep.engines["dcA"]
    gw = Gateway(SimRuntime(net, engine.host), executor=lambda query: engine.query(query),
                 workload=lambda seq: {"query": f"q{seq}"}, rate=rate)
    gw.start()
    net.sim.call_at(warmup + fail_at, dep.fail_doc_service, "dcA")
    net.sim.call_at(warmup + recover_at, dep.recover_doc_service, "dcA")
    net.run(until=warmup + end + 5.0)
    gw.stop()
    stats = gw.stats
    rt = {int(s - warmup): v for s, v in stats.response_time_series()}
    thr = {int(s - warmup): v for s, v in stats.throughput_series()}
    return _entry(
        {"networks": 3, "hosts_per_network": 6, "seed": 4, "warmup": warmup, "fail_at": fail_at,
         "recover_at": recover_at, "end": end, "rate": rate},
        timeline=_table(
            "Fig. 14: search engine during DC-A retrieval failure (fail@20s, recover@40s)",
            "second:d|response time (ms):.1f|throughput (req/s):d",
            [[s, 1000 * rt[s] if s in rt else None, thr.get(s, 0)] for s in range(int(end))]),
        requests=_table("Fig. 14: requests over the whole run", "issued:d|completed:d|failed:d",
                        [[stats.issued, stats.completed, stats.failed]]))


def group_size() -> Entry:
    """Ablation: group size g at n = 96; bandwidth ~ g, detection independent of g."""
    total, shapes = 96, [(12, 8), (6, 16), (3, 32)]  # (networks, hosts per network)
    rows = []
    for networks, per in shapes:
        res = FailureExperiment("hierarchical", networks, per, seed=6, warmup=20.0,
                                bandwidth_window=10.0, observe=40.0).run()
        model = HierarchicalModel(group_size=per).aggregate_bandwidth(total)
        rows.append([per, networks, res.bandwidth.aggregate_rate / 1e3, model / 1e3,
                     res.detection, res.convergence])
    return _entry(
        {"nodes": total, "shapes": shapes, "seed": 6, "warmup": 20.0, "bandwidth_window": 10.0,
         "observe": 40.0},
        group_size=_table(f"Ablation: group size at n={total} (hierarchical)",
                          "group size:d|groups:d|measured KB/s:.1f|model KB/s:.1f"
                          "|detect (s):.2f|converge (s):.2f", rows))


def heartbeat() -> Entry:
    """Ablation: heartbeat period and MAX_LOSS, the bandwidth-detection-time trade-off."""

    def run(config: HierarchicalConfig) -> List[Any]:
        """Bandwidth (KB/s), detection (s) and their product, the BDT (KB)."""
        res = FailureExperiment("hierarchical", 3, 10, seed=7, warmup=25.0,
                                bandwidth_window=10.0, observe=60.0, config=config).run()
        bandwidth = res.bandwidth.aggregate_rate / 1e3
        return [bandwidth, res.detection, bandwidth * res.detection]

    periods = [[p] + run(HierarchicalConfig(heartbeat_period=p)) for p in (0.5, 1.0, 2.0)]
    return _entry(
        {"networks": 3, "hosts_per_network": 10, "seed": 7, "warmup": 25.0,
         "bandwidth_window": 10.0, "observe": 60.0},
        period=_table("Ablation: heartbeat period (max_loss=5, 30 nodes)",
                      "period (s):.1f|bandwidth KB/s:.1f|detect (s):.2f|BDT (KB):.0f", periods),
        max_loss=_table("Ablation: max tolerated losses (period=1 s, 30 nodes)",
                        "max_loss:d|bandwidth KB/s:.1f|detect (s):.2f",
                        [[k] + run(HierarchicalConfig(max_loss=k))[:2] for k in (3, 5, 8)]))


def piggyback() -> Entry:
    """Ablation: update piggyback depth under 15 % loss and a three-node churn burst.

    Five seeds per depth, tabled as median and min-max: one seed's spread
    is wider than the gaps between depths.
    """
    depths, loss, kills, seeds = [0, 1, 3, 6], 0.15, [25.0, 27.0, 29.0], [8, 9, 10, 11, 12]

    def run(depth: int, seed: int) -> List[Any]:
        """Sync and update traffic (KB) after the burst, and whether every view is exact."""
        topo, hosts = build_switched_cluster(4, 10)
        net = Network(topo, seed=seed, loss_rate=loss)
        nodes = deploy(HierarchicalNode, net, hosts,
                       config=HierarchicalConfig(piggyback_depth=depth))
        net.run(until=25.0)
        # Three non-leader kills, each a burst of remove-updates under loss.
        victims = [hosts[5], hosts[15], hosts[25]]
        for when, victim in zip(kills, victims):
            net.sim.call_at(when, nodes[victim].stop)
            net.sim.call_at(when, net.crash_host, victim)
        net.meter.reset()
        net.run(until=90.0)
        meter, survivors = net.meter, [h for h in hosts if h not in victims]
        return [(meter.bytes_by_kind("sync_req") + meter.bytes_by_kind("sync_resp")) / 1e3,
                meter.bytes_by_kind("update") / 1e3,
                all(nodes[h].view() == sorted(survivors) for h in survivors)]

    rows = []
    for depth in depths:
        sync, update, exact = zip(*(run(depth, seed) for seed in seeds))
        rows.append([depth, *_spread(sync), *_spread(update), all(exact)])
    return _entry(
        {"depths": depths, "loss_rate": loss, "networks": 4, "hosts_per_network": 10,
         "seeds": seeds, "kills_at": kills, "until": 90.0},
        piggyback=_table("Ablation: piggyback depth under 15% loss (3-node churn burst),"
                         " seeds 8-12",
                         "depth:d|sync median (KB):.1f|sync min (KB):.1f|sync max (KB):.1f"
                         "|update median (KB):.1f|update min (KB):.1f|update max (KB):.1f"
                         "|views exact:", rows))


def accuracy() -> Entry:
    """Mean Jaccard accuracy of live views through three kills and one recovery."""
    kills, recover_at, horizon = [30.0, 32.0, 34.0], 50.0, 75.0
    series = {}
    for scheme in SCHEME_NAMES:
        net, hosts, nodes = make_scheme_cluster(scheme, 3, 10, seed=17)
        victims = [hosts[7], hosts[17], hosts[27]]
        intervals = {h: [(0.0, horizon)] for h in hosts}
        for when, victim in zip(kills, victims):
            net.sim.call_at(when, nodes[victim].stop)
            net.sim.call_at(when, net.crash_host, victim)
            intervals[victim] = [(0.0, when)]
        net.sim.call_at(recover_at, net.recover_host, victims[0])
        net.sim.call_at(recover_at, nodes[victims[0]].start)
        intervals[victims[0]].append((recover_at, horizon))
        net.run(until=horizon)
        series[scheme] = dict(accuracy_timeseries(net.trace, hosts, intervals, horizon=horizon))
    return _entry(
        {"networks": 3, "hosts_per_network": 10, "seed": 17, "kills_at": kills,
         "recover_at": recover_at, "horizon": horizon},
        timeline=_table(
            "Accuracy timeline (kills @30/32/34 s, one recovery @50 s)",
            "second:d|" + "|".join(f"{s}:.4f" for s in SCHEME_NAMES),
            [[t] + [series[s][float(t)] for s in SCHEME_NAMES] for t in range(20, int(horizon))]))


def chaos() -> Entry:
    """The canonical chaos scenario (:mod:`repro.chaos`) over five seeds."""
    runs = [ChaosScenario(seed=seed).run() for seed in CHAOS_SEEDS]
    rows = [[r.seed, r.ok, r.false_failures, r.detection, r.convergence,
             r.fault_stats.get("drops", 0)] for r in runs]
    s = ChaosScenario()
    return _entry(
        {"seeds": CHAOS_SEEDS, "networks": s.networks, "hosts_per_network": s.hosts_per_network,
         "loss_rate": LOSS_RATE, "chaos_start": s.chaos_start, "chaos_end": s.chaos_end,
         "quiesce": s.quiesce, "directional_loss": DEGRADED_LINK["loss"],
         **{k: v for k, v in DEGRADED_LINK.items() if k != "loss"},
         "check_period": CHECK_PERIOD,
         "max_false_failures": false_failure_bound(HierarchicalConfig().detector)},
        chaos=_table("Chaos: invariant-checked crash/recover under partition and loss",
                     "seed:d|invariants green:|false failures:d|detection (s):.2f"
                     "|convergence (s):.2f|chaos drops:d", rows))


#: Figure name -> function, in the order ``reproduce`` runs and writes them.
FIGURES: Dict[str, Callable[[], Entry]] = {f.__name__: f for f in (
    fig02, sec4, fig11, fig12_13, fig14, group_size, heartbeat, piggyback, accuracy, chaos)}


def _cell(value: Any, fmt: str) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    return "-" if value is None else format(value, fmt)


def render_table(table: Dict[str, Any]) -> str:
    """One table as markdown: a bold title line, a blank line, the grid."""
    lines = [f"**{table['title']}**", "", "| " + " | ".join(table["columns"]) + " |",
             "|" + "---|" * len(table["columns"])]
    lines += ["| " + " | ".join(map(_cell, row, table["fmt"])) + " |" for row in table["rows"]]
    return "\n".join(lines) + "\n"


def render(entry: Entry) -> str:
    """Every table of one figure, in order, separated by blank lines."""
    return "\n".join(render_table(table) for table in entry["tables"].values())
