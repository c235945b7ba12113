"""The committed evaluation (EXPERIMENTS.json) against the paper and the code.

The paper's qualitative shapes are asserted on the committed JSON with
the evaluation's thresholds; EXPERIMENTS.md must quote every table
verbatim as rendered from it; and every figure but the 30-run
``fig12_13`` sweep must regenerate it exactly, whichever way ``sum()``
adds floats (CI diffs a full rerun on each Python version).
"""

import builtins
import json
import math
import re
from pathlib import Path

import pytest

from repro.metrics.figures import FIGURES, render_table
from repro.protocols import ProtocolConfig

builtin_sum = builtins.sum
ROOT = Path(__file__).resolve().parents[2]
COMMITTED = json.loads((ROOT / "EXPERIMENTS.json").read_text())
SCHEMES = ["all-to-all", "gossip", "hierarchical"]
CFG = ProtocolConfig()


def rows(figure, table):
    return COMMITTED[figure]["tables"][table]["rows"]


def column(figure, table, name):
    """``{first cell: cell of column name}``; :func:`by_scheme` gives one per scheme."""
    i = COMMITTED[figure]["tables"][table]["columns"].index(name)
    return {row[0]: row[i] for row in rows(figure, table)}


def by_scheme(figure, table):
    return {s: column(figure, table, s) for s in SCHEMES}


def test_fig02_paper_endpoints_and_simulated_rate():
    assert column("fig02", "model", "CPU %")[4000] == pytest.approx(4.5, rel=0.05)
    assert column("fig02", "model", "rx pkts/s")[4000] == pytest.approx(4000, rel=0.01)
    # ~4 MB/s at 4000 nodes = 32% of a Fast Ethernet link.
    assert column("fig02", "model", "FastEth share")[4000] == pytest.approx(0.32, rel=0.05)
    # The simulation reproduces the model's arrival rate.
    assert [n for n, *_ in rows("fig02", "validation")] == [20, 40, 80]
    for n, simulated, model in rows("fig02", "validation"):
        assert simulated == pytest.approx(model, rel=0.1)


def test_sec4_hierarchical_lowest_products_and_asymptotics():
    bdt = {s: column("sec4", "bdt", f"{s} BDT(MB)") for s in SCHEMES}
    bct = by_scheme("sec4", "bct")
    for n in bdt["hierarchical"]:
        assert bdt["hierarchical"][n] == min(bdt[s][n] for s in SCHEMES)
        assert bct["hierarchical"][n] == min(bct[s][n] for s in SCHEMES)
    # Quadratic vs quadratic-log vs linear.
    for name, lo, hi in (("all-to-all", 3.9, 4.2), ("gossip", 3.9, 4.2),
                         ("hierarchical", 1.9, 2.1)):
        bandwidth = column("sec4", "bdt", f"{name} MB/s")
        assert lo < bandwidth[4096] / bandwidth[2048] < hi, name
    assert (bdt["gossip"][4096] / bdt["gossip"][2048]
            > bdt["all-to-all"][4096] / bdt["all-to-all"][2048])


def test_sec4_model_matches_fig11_cells_within_25_percent():
    validation = rows("sec4", "validation")
    assert sorted((s, n) for s, n, *_ in validation) == [(s, n) for s in SCHEMES for n in (40, 100)]
    for scheme, n, simulated, model, _deviation in validation:
        assert simulated == pytest.approx(model, rel=0.25), (scheme, n)
        assert simulated == pytest.approx(column("fig11", "aggregate", scheme)[n] * 1e3)


def test_fig11_linear_vs_quadratic_bandwidth():
    agg = by_scheme("fig11", "aggregate")
    assert list(agg["hierarchical"]) == [20, 40, 60, 80, 100]
    # At 20 nodes all schemes are within ~2x of each other (single group).
    assert max(agg[s][20] for s in SCHEMES) / min(agg[s][20] for s in SCHEMES) < 2.0
    # Hierarchical is the cheapest at every larger size.
    for n in (40, 60, 80, 100):
        assert agg["hierarchical"][n] == min(agg[s][n] for s in SCHEMES)
    # Growth 20 -> 100: ~linear for hierarchical, ~quadratic for the others.
    assert 3.5 < agg["hierarchical"][100] / agg["hierarchical"][20] < 8.0
    for scheme in ("all-to-all", "gossip"):
        assert agg[scheme][100] / agg[scheme][20] > 15.0, scheme
    # Per-node bandwidth: ~constant for hierarchical, ~5x for all-to-all.
    per_node = by_scheme("fig11", "per_node")
    assert per_node["hierarchical"][100] / per_node["hierarchical"][20] < 1.6
    assert per_node["all-to-all"][100] / per_node["all-to-all"][20] > 3.5


def test_fig12_detection():
    detection = by_scheme("fig12_13", "detection")
    for table in ("detection", "convergence"):  # every run detected and converged
        for cells in by_scheme("fig12_13", table).values():
            assert list(cells) == [20, 40, 60, 80, 100] and None not in cells.values()
    for n in detection["gossip"]:
        # Heartbeat schemes detect in ~fail_timeout, independent of size.
        for scheme in ("all-to-all", "hierarchical"):
            assert CFG.fail_timeout <= detection[scheme][n] <= CFG.fail_timeout + 2.0
        # Gossip is the slowest at every size.
        assert detection["gossip"][n] > detection["all-to-all"][n]
        assert detection["gossip"][n] > detection["hierarchical"][n]
    # Gossip detection grows with n; heartbeat schemes stay flat.
    assert detection["gossip"][100] > detection["gossip"][20] + 1.0
    hier = detection["hierarchical"].values()
    assert max(hier) - min(hier) < 2.0


def test_fig13_convergence():
    conv, det = by_scheme("fig12_13", "convergence"), by_scheme("fig12_13", "detection")
    gap, period = by_scheme("fig12_13", "gap"), CFG.heartbeat_period
    for n in conv["gossip"]:
        assert all(gap[s][n] == conv[s][n] - det[s][n] for s in SCHEMES)
        # Gossip is the largest; hierarchical matches all-to-all within
        # ~2 heartbeat periods and floods the update quickly once detected.
        assert conv["gossip"][n] > conv["all-to-all"][n]
        assert conv["gossip"][n] > conv["hierarchical"][n]
        assert abs(conv["hierarchical"][n] - conv["all-to-all"][n]) < 2 * period
        assert conv["hierarchical"][n] - det["hierarchical"][n] < 2 * period
        # Gossip convergence lags far behind its own detection.
        assert conv["gossip"][n] - det["gossip"][n] > 2.0
    assert conv["gossip"][100] > 3 * conv["hierarchical"][100]
    for scheme in ("all-to-all", "hierarchical"):
        assert max(conv[scheme].values()) - min(conv[scheme].values()) < 2.5


def test_fig14_proxy_failover():
    rate, end = COMMITTED["fig14"]["params"]["rate"], int(COMMITTED["fig14"]["params"]["end"])
    rt = column("fig14", "timeline", "response time (ms)")  # None: nothing completed
    thr = column("fig14", "timeline", "throughput (req/s)")
    window = lambda lo, hi: [rt[s] for s in range(lo, hi) if rt[s] is not None]  # noqa: E731
    # Normal operation well under 100 ms; above 200 ms via data center B
    # during the failure; right back to the local level on recovery.
    assert window(5, 19) and max(window(5, 19)) < 100.0
    assert window(27, 39) and min(window(27, 39)) > 200.0
    assert window(45, 59) and max(window(45, 59)) < 100.0
    # Throughput dips only in the detection windows (seconds 0 and
    # END-1 are partial buckets), and no request is lost.
    assert all(thr[s] == rate for s in range(30, 39))
    dip = [s for s in range(2, end - 1) if thr[s] < rate]
    assert dip and all(19 <= s <= 30 or 39 <= s <= 47 for s in dip), dip
    assert [failed for _issued, _completed, failed in rows("fig14", "requests")] == [0]


def test_ablation_group_size():
    measured = column("group_size", "group_size", "measured KB/s")
    model = column("group_size", "group_size", "model KB/s")
    # ~linear in g at fixed n; ideal (g-1) scaling gives 31/7 = 4.4.
    assert 2.5 < measured[32] / measured[8] < 5.5
    for per, _groups, _bw, _model, detect, converge in rows("group_size", "group_size"):
        assert 5.0 <= detect <= 7.0 and converge - detect < 2.0
        assert measured[per] == pytest.approx(model[per], rel=0.3)


def test_ablation_heartbeat():
    bandwidth, detect, bdt = (column("heartbeat", "period", c)
                              for c in ("bandwidth KB/s", "detect (s)", "BDT (KB)"))
    # Faster heartbeats: proportionally faster detection, more bandwidth;
    # the BDT product stays within 2x.
    assert detect[0.5] < detect[2.0] / 2.5 and bandwidth[0.5] > 3 * bandwidth[2.0]
    assert bdt == {p: bandwidth[p] * detect[p] for p in (0.5, 1.0, 2.0)}
    assert max(bdt.values()) / min(bdt.values()) < 2.0
    # max_loss shifts detection linearly at ~constant bandwidth.
    loss_bw, loss_detect = (column("heartbeat", "max_loss", c)
                            for c in ("bandwidth KB/s", "detect (s)"))
    assert 3.0 <= loss_detect[3] <= 4.5 and 8.0 <= loss_detect[8] <= 9.5
    assert loss_bw[8] == pytest.approx(loss_bw[3], rel=0.15)


def test_ablation_piggyback():
    # The sync poll is the backstop: views are exact at every depth and
    # seed; in the median over seeds, no piggyback needs more sync
    # recovery than depth 3, and deeper piggybacking makes update
    # packets bigger.
    assert column("piggyback", "piggyback", "views exact") == {0: True, 1: True, 3: True, 6: True}
    sync = column("piggyback", "piggyback", "sync median (KB)")
    update = column("piggyback", "piggyback", "update median (KB)")
    assert sync[0] > sync[3] and update[6] >= update[0]


def test_accuracy_dips_and_recovery():
    series = by_scheme("accuracy", "timeline")
    horizon = int(COMMITTED["accuracy"]["params"]["horizon"])
    for scheme, s in series.items():
        assert s[28] == 1.0 and s[36] < 1.0 and s[horizon - 1] == 1.0, scheme
    width = {k: sum(1 for t in range(29, horizon) if s[t] < 0.9999) for k, s in series.items()}
    # Gossip's dips are substantially wider; hierarchical matches all-to-all.
    assert width["gossip"] > width["hierarchical"] + 4
    assert width["gossip"] > width["all-to-all"] + 4
    assert abs(width["hierarchical"] - width["all-to-all"]) <= 3


class TestExperimentsDoc:
    """EXPERIMENTS.md's tables are rendered from EXPERIMENTS.json, not typed."""

    doc = (ROOT / "EXPERIMENTS.md").read_text()

    @pytest.mark.parametrize("name", list(FIGURES))
    def test_tables_quoted_verbatim(self, name):
        assert list(COMMITTED) == list(FIGURES)
        for table in COMMITTED[name]["tables"].values():
            assert render_table(table) in self.doc, table["title"]

    def test_only_the_named_tables_are_hand_quoted(self):
        rendered = "".join(map(render_table, (t for e in COMMITTED.values()
                                              for t in e["tables"].values())))
        blocks = re.findall(r"(?m)(?:^\|.*\n)+", self.doc)
        assert [b.splitlines()[0] for b in blocks if b not in rendered] == [
            "| commit | `runtime.anet.cpu_us_per_datagram` | runs |",
            "| workload | nodes | topology | detection (s) | convergence (s) | per-node receive |",
        ]


def correctly_rounded_sum(iterable, start=0):
    """``sum`` with floats summed by ``math.fsum``, as no CPython's ``sum`` does."""
    items = list(iterable)
    if isinstance(start, float) or any(isinstance(x, float) for x in items):
        return math.fsum([start, *items])
    return builtin_sum(items, start)


@pytest.mark.parametrize("name", [n for n in FIGURES if n != "fig12_13"])
def test_figure_regenerates_exactly(name, monkeypatch):
    # CPython 3.12's sum() of floats is compensated and earlier versions'
    # is not, so a figure that sums floats with sum() differs in its last
    # bits across versions; regenerating under a different summation
    # catches that on any interpreter.
    monkeypatch.setattr(builtins, "sum", correctly_rounded_sum)
    assert json.loads(json.dumps(FIGURES[name]())) == COMMITTED[name]
