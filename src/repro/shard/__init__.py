"""Process-parallel sharded simulation with a deterministic merge.

The plain kernel (:mod:`repro.sim.engine`) runs one global event queue.
This package partitions a deployment by L2 segment (the paper's level-0
group domain) into *N* shards, each owning the nodes of its segments and
running its own :class:`~repro.shard.engine.ShardSimulator`, and
synchronises them with conservative time-window barriers whose lookahead
is the minimum cross-segment link latency
(:meth:`~repro.net.topology.Topology.cross_segment_lookahead`).

Cross-segment packets never race: every one is buffered as a declarative
:class:`~repro.shard.netshard.Descriptor`, exchanged at the window edge,
and evaluated by the receiving shard in one deterministic total order —
so the merged trace of a run is **byte-identical for every shard count**
(the determinism contract; see docs/PERFORMANCE.md).

Layout
------
* :mod:`repro.shard.partition` — segment → shard assignment and
  boundary-link classification.
* :mod:`repro.shard.engine` — :class:`ShardSimulator`: tuple-keyed event
  ordering that is stable across shard counts, plus window draining.
* :mod:`repro.shard.netshard` — the per-shard :class:`~repro.net.network.
  Network`: the plain fabrics, subclassed to deliver inside the sender's
  segment at send time and file everything else for the barrier.
* :mod:`repro.shard.scenario` — the picklable scenario spec (spawn-safe).
* :mod:`repro.shard.runner` — the in-process windowed barrier loop.
* :mod:`repro.shard.workers` — the multiprocessing (spawn) runner.
"""

from repro.shard.engine import ShardSimulator
from repro.shard.partition import ShardMap
from repro.shard.runner import ShardRun, run_scenario, trace_hash
from repro.shard.scenario import ShardScenario
from repro.shard.workers import run_scenario_mp

__all__ = [
    "ShardMap",
    "ShardRun",
    "ShardScenario",
    "ShardSimulator",
    "run_scenario",
    "run_scenario_mp",
    "trace_hash",
]
