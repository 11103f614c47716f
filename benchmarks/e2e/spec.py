"""What the benchmark measures: workload sizes, metric tables, expectations.

``BENCHMARK.json`` at the repository root is the contract the driver
enforces — command, workloads, the end-to-end metrics every workload emits
(with their regression bounds) and the per-layer metric names.  It has a
fixed set of keys, so everything else the instrument needs lives here:

* the sizes of each workload (full and ``--smoke``),
* the *detail* end-to-end metrics that only some workloads emit
  (``s2t_ari`` has no meaning on ``cold_recovery``) and their bounds,
* which metrics are counts that must repeat exactly for a fixed seed,
* per workload, the layer expected to dominate the traced self time and
  the layers expected to be idle.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

WORKLOADS = ["s2t_batch", "s2t_pooled", "qut_progressive", "ingest_stream", "cold_recovery"]


@functools.cache
def contract() -> dict:
    """``BENCHMARK.json``, the single source of the gated metric tables."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_seconds() -> int:
    """How long one run measures when ``--seconds`` is not given."""
    return contract()["run_seconds"]


@functools.cache
def end_to_end() -> dict[str, dict]:
    """The gated end-to-end metrics, by name."""
    return {m["name"]: m for m in contract()["end_to_end"]}


@functools.cache
def per_layer() -> dict[str, dict]:
    """The per-layer metrics of the traced run, by name."""
    return {m["name"]: m for m in contract()["per_layer"]}


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one workload.

    ``ops`` is the number of timed primary operations at ``run_seconds()``;
    it scales linearly with ``--seconds`` so the schedule (and therefore
    every count) is a function of the arguments alone, never of how fast
    the machine happens to be.  ``setups`` is the number of rounds the
    operations are spread over, each on a dataset of its own (see
    workloads.py); the traced run has one.
    """

    trajectories: int
    samples: int
    ops: int
    setups: int
    traced_ops: int


# Full sizes are calibrated on the 2-core sandbox so that set-up, the timed
# script and the checks of one run take 17-25 s (the driver allows ~30 s
# per run on average).  ``trajectories`` is the *base* load for the two
# append workloads; the appended batches come on top (see workloads.py).
FULL = {
    "s2t_batch": Sizes(trajectories=400, samples=50, ops=10, setups=5, traced_ops=2),
    "s2t_pooled": Sizes(trajectories=400, samples=50, ops=9, setups=3, traced_ops=1),
    "qut_progressive": Sizes(trajectories=300, samples=50, ops=200, setups=3, traced_ops=40),
    "ingest_stream": Sizes(trajectories=100, samples=50, ops=24, setups=3, traced_ops=6),
    "cold_recovery": Sizes(trajectories=200, samples=50, ops=20, setups=3, traced_ops=6),
}
SMOKE = {
    "s2t_batch": Sizes(trajectories=24, samples=20, ops=2, setups=1, traced_ops=1),
    "s2t_pooled": Sizes(trajectories=24, samples=20, ops=3, setups=1, traced_ops=1),
    "qut_progressive": Sizes(trajectories=24, samples=20, ops=10, setups=1, traced_ops=5),
    "ingest_stream": Sizes(trajectories=16, samples=20, ops=3, setups=1, traced_ops=2),
    "cold_recovery": Sizes(trajectories=16, samples=20, ops=3, setups=1, traced_ops=2),
}

# Trajectories per appended batch / number of deltas the cold store carries.
APPEND_BATCH = {False: 20, True: 4}
COLD_DELTAS = 3
# Pooled S2T calls one engine may serve: the worker-side attach cache
# (core.parallel._ATTACH_CACHE_LIMIT = 4) raises BufferError when it evicts
# its fifth segment, so s2t_pooled opens a fresh connection every 4 calls
# (1 warm-up + 3 timed).  Reported in README.md; the fix belongs to src/.
POOLED_CALLS_PER_CONNECTION = 4
PARTITIONS = 4


def sizes(workload: str, smoke: bool, seconds: float) -> Sizes:
    """The workload's sizes with ``ops`` scaled to ``seconds``."""
    if smoke:
        return SMOKE[workload]
    base = FULL[workload]
    return replace(base, ops=max(2, round(base.ops * seconds / run_seconds())))


# Detail end-to-end metrics: measured with tracing off like the gated ones,
# but only on the workloads where they mean something, so they cannot sit in
# BENCHMARK.json (the driver wants every gated metric from every workload).
# compare.py judges them with these bounds.  ``abs`` marks an absolute bound.
DETAIL: dict[str, dict] = {
    "s2t_ari": {"unit": "ratio", "better": "higher", "bound": 0.01, "abs": True,
                "workloads": ["s2t_batch", "s2t_pooled"]},
    "tree_build_s": {"unit": "s", "better": "lower", "bound": 0.10,
                     "workloads": ["qut_progressive"]},
    "op_p95_ms": {"unit": "ms", "better": "lower", "bound": 0.10,
                  "workloads": ["qut_progressive"]},
    "append_points_per_s": {"unit": "1/s", "better": "higher", "bound": 0.10,
                            "workloads": ["ingest_stream"]},
    "fsyncs_per_append": {"unit": "count", "better": "lower", "bound": 0.0,
                          "workloads": ["ingest_stream"]},
    "write_amp": {"unit": "ratio", "better": "lower", "bound": 0.02,
                  "workloads": ["ingest_stream"]},
    "disk_bytes_per_point": {"unit": "B", "better": "lower", "bound": 0.02,
                             "workloads": ["ingest_stream", "cold_recovery"]},
    "failed_ops_share": {"unit": "ratio", "better": "lower", "bound": 0.0, "abs": True,
                         "workloads": list(WORKLOADS)},
}

# Counts that must repeat exactly for a fixed seed (one client, no timers);
# compare.py reports any difference between two same-seed sets as a defect.
EXACT = {
    "fsyncs_per_append", "write_amp", "disk_bytes_per_point", "failed_ops_share", "s2t_ari",
    "hermes.shm_live_segments",
    "s2t.voting_pairs_evaluated", "s2t.voting_prune_ratio", "s2t.subtrajectories",
    "s2t.representatives", "s2t.clusters", "s2t.outliers",
    "core.parallel.bytes_per_task",
    "core.ingest.s2t_runs", "core.ingest.assigned_ratio",
    "qut.subchunks_touched", "qut.entries_touched", "qut.members_returned",
    "index.rtree_nodes_per_probe",
    "storage.write_calls", "storage.write_bytes", "storage.fsync_calls",
    "storage.replace_calls", "storage.manifest_bytes", "storage.pool_hits",
    "storage.pool_misses", "storage.pool_hit_ratio", "storage.pages_read",
    "storage.pages_written", "storage.io_retries",
    "sql.rows_per_result",
}

# Which layer should own the largest traced self time, and which should own
# at most IDLE_SHARE of it.  The traced run checks both and fails otherwise.
IDLE_SHARE = 0.05
EXPECT = {
    "s2t_batch": {"dominant": "s2t", "idle": ["storage", "core.parallel", "qut"]},
    "s2t_pooled": {"dominant": "s2t", "idle": ["storage", "qut"]},
    "qut_progressive": {"dominant": "qut", "idle": ["s2t", "core.parallel"]},
    "ingest_stream": {"dominant": "core.ingest", "idle": ["core.parallel"]},
    "cold_recovery": {"dominant": "qut", "idle": ["s2t", "core.parallel"]},
}


def unit_of(metric: str) -> str:
    """The declared unit of any metric the benchmark may emit."""
    for table in (end_to_end(), DETAIL, per_layer()):
        if metric in table:
            return table[metric]["unit"]
    raise KeyError(f"metric {metric!r} is not declared in BENCHMARK.json or spec.DETAIL")
