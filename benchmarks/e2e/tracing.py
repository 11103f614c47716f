"""The traced run: spans at layer boundaries and the per-layer metrics.

No file under ``src/`` records spans yet (ROADMAP item 2), so this file
records them from the outside, around calls into each layer's *public*
functions.  Every span has a name, a layer, a start, an end, its parent, the
workload and an operation id; they are kept in memory and written to
``out/trace-<workload>.json`` when the run ends.

Three kinds of span:

``op``
    Part of a workload operation.  A statement whose inside cannot be seen
    from here runs under a span of layer ``e2e`` and is then *replayed*
    layer by layer — ``compute_voting`` → ``segment_mod`` →
    ``select_representatives`` → ``greedy_clustering`` for S2T, manifest
    read → ``ReTraTree.from_manifest`` → ``QuTClustering.query`` for a cold
    open — and the replay must reproduce the statement's clusters (one
    digest).  A statement that enters exactly one layer carries that
    layer's name itself (an append is ``core.ingest``).  The storage shim's
    spans nest under whatever is running.
``setup``
    Building the state the operations start from.
``drill``
    A micro-measurement of one public function (R-tree probes, ``plan_sql``,
    ``conn.prepare`` …) that is not part of any operation.

A layer's self time is the duration of its ``op`` spans minus the part their
child spans cover; the table of self-time shares (``e2e`` left out) is what
the dominant-layer and idle-layer expectations of ``spec.EXPECT`` are
checked against.  A per-layer metric of a layer the workload never enters
reads 0.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import repro
from repro.api import Connection
from repro.core.engine import HermesEngine
from repro.core.parallel import merge_partition_results
from repro.datagen import aircraft_scenario
from repro.hermes.frame import MODFrame
from repro.hermes.mod import MOD
from repro.hermes.shm import default_arena
from repro.hermes.types import Period
from repro.index.interval import IntervalIndex
from repro.index.rtree3d import RTree3D
from repro.qut.query import QuTClustering
from repro.qut.retratree import ReTraTree
from repro.s2t.clustering import greedy_clustering
from repro.s2t.params import S2TParams
from repro.s2t.sampling import select_representatives
from repro.s2t.segmentation import segment_mod
from repro.s2t.voting import compute_voting
from repro.sql.plan import bind_for_execution
from repro.sql.planner import plan_sql
from repro.storage.catalog import StorageManager
from repro.storage.faults import IOShim
from repro.storage.fsck import fsck_store

import spec
import workloads as wl
from harness import (
    Samples,
    available_cpus,
    clock,
    metric,
    ratio_note,
    result_digest,
)

MICRO_REPS = 200
STAGES = ("voting", "segmentation", "sampling", "clustering")


class Tracer:
    """In-memory span recorder.  Disabled, ``span`` costs one branch."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict] = []
        self.enabled = True
        self.op = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str, kind: str | None = "op") -> Iterator[None]:
        """Record one span around the ``with`` body (``kind=None``: the parent's)."""
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        if kind is None:
            kind = self.spans[parent]["kind"] if parent is not None else "op"
        record = {
            "id": len(self.spans), "parent": parent,
            "name": name, "layer": layer, "kind": kind, "workload": self.workload,
            "op": self.op, "start": clock(), "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = clock()
            self._stack.pop()

    def timed(self, name: str, layer: str, fn: Callable[[], object], kind: str = "op"):
        """Run ``fn`` under a span; returns ``(seconds, result)``."""
        start = clock()
        with self.span(name, layer, kind):
            result = fn()
        return clock() - start, result

    def layer_self_seconds(self) -> dict[str, float]:
        """Self time of the ``op`` spans per layer, ``e2e`` left out."""
        covered: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        totals: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s["kind"] == "op" and s["layer"] != "e2e":
                totals[s["layer"]] += max(0.0, s["end"] - s["start"] - covered[s["id"]])
        return dict(totals)


class TimingIO(IOShim):
    """The storage layer's OS calls, counted, timed and recorded as spans."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.counts: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)

    def reset(self) -> None:
        """Forget what set-up did: the counters cover the operations only."""
        self.counts.clear()
        self.seconds.clear()

    def _call(self, kind: str, fn: Callable[[], object]):
        start = clock()
        with self.tracer.span(f"io.{kind}", "storage", None):
            result = fn()
        self.counts[f"{kind}_calls"] += 1
        self.seconds[kind] += clock() - start
        return result

    def read(self, fh, n: int = -1) -> bytes:
        return self._call("read", lambda: IOShim.read(self, fh, n))

    def read_bytes(self, path) -> bytes:
        return self._call("read", lambda: IOShim.read_bytes(self, path))

    def write(self, fh, data: bytes) -> None:
        self.counts["write_bytes"] += len(data)
        self._call("write", lambda: IOShim.write(self, fh, data))

    def fsync(self, fh) -> None:
        self._call("fsync", lambda: IOShim.fsync(self, fh))

    def fsync_dir(self, path) -> None:
        self._call("fsync", lambda: IOShim.fsync_dir(self, path))

    def replace(self, src, dst) -> None:
        self._call("replace", lambda: IOShim.replace(self, src, dst))


class Layers:
    """The per-layer metric values of one traced run, zero until measured."""

    def __init__(self) -> None:
        self.values: dict[str, tuple[float, Samples | None, float]] = {}

    def put(self, name: str, value: float, samples: Samples | None = None, scale: float = 1.0):
        """Set one metric (``samples`` scaled by ``scale`` into its unit)."""
        self.values[name] = (float(value), samples, scale)

    def median(self, name: str, samples: Samples, scale: float = 1.0) -> None:
        """Set one metric to the median of its samples."""
        self.put(name, samples.median * scale, samples, scale)

    def records(self) -> dict[str, dict]:
        """Metric records for every name in ``BENCHMARK.json`` ``per_layer``."""
        return {
            name: metric(name, *self.values.get(name, (0.0, None, 1.0)))
            for name in spec.per_layer()
        }


# -- drills shared by the workloads ----------------------------------------------


def drill_hermes(tr: Tracer, mod, out: Layers) -> MODFrame:
    """``MODFrame.from_mod`` and a pass of per-partition ``slice_period``."""
    build, slicing = Samples(), Samples()
    frame = None
    for _ in range(3):
        seconds, frame = tr.timed("MODFrame.from_mod", "hermes", lambda: MODFrame.from_mod(mod), "drill")
        build.add(seconds)
        seconds, _ = tr.timed(
            "frame.slice_period x partitions", "hermes",
            lambda: [frame.slice_period(p) for p in mod.period.split(spec.PARTITIONS)], "drill",
        )
        slicing.add(seconds)
    out.median("hermes.frame_build_s", build)
    out.median("hermes.slice_period_s", slicing)
    return frame


def drill_index(tr: Tracer, frame: MODFrame, out: Layers) -> None:
    """R-tree build and probes over the dataset's boxes; interval overlap queries."""
    rows = range(len(frame))
    boxes = [frame.bbox_of(r) for r in rows]
    tree = RTree3D(max_entries=16)

    def build():
        for row, box in zip(rows, boxes):
            tree.insert(box, row)

    seconds, _ = tr.timed("RTree3D.insert x rows", "index", build, "drill")
    out.put("index.rtree_build_s", seconds)
    probes, nodes = Samples(), 0
    for box in boxes[:MICRO_REPS]:
        seconds, (_values, visited) = tr.timed(
            "RTree3D.range_search_with_stats", "index",
            lambda b=box: tree.range_search_with_stats(b), "drill",
        )
        probes.add(seconds)
        nodes += visited
    out.median("index.rtree_probe_us", probes, 1e6)
    out.put("index.rtree_nodes_per_probe", nodes / len(probes))
    periods = [frame.period_of(r) for r in rows]
    intervals = IntervalIndex.bulk_load(list(zip(periods, rows)))
    queries = Samples()
    for period in periods[:MICRO_REPS]:
        seconds, _ = tr.timed(
            "IntervalIndex.overlapping", "index", lambda p=period: intervals.overlapping(p), "drill"
        )
        queries.add(seconds)
    out.median("index.interval_query_us", queries, 1e6)


def drill_sql_api(tr: Tracer, conn: Connection, sql: str, params, reps: int, out: Layers) -> None:
    """Parse/plan, plan execution, prepare, the memo path and fetch."""
    plan_t, prepare_t = Samples(), Samples()
    for _ in range(MICRO_REPS):
        plan_t.add(tr.timed("plan_sql", "sql", lambda: plan_sql(sql), "drill")[0])
        prepare_t.add(tr.timed("conn.prepare", "api", lambda: conn.prepare(sql), "drill")[0])
    out.median("sql.parse_plan_us", plan_t, 1e6)
    out.median("api.prepare_us", prepare_t, 1e6)

    executor = conn.engine.plan_executor()
    bound = bind_for_execution(plan_sql(sql), params)
    execute_t, fetch_t, rows = Samples(), Samples(), 0
    for _ in range(reps):
        seconds, result = tr.timed(
            "PlanExecutor.execute", "sql", lambda: list(executor.execute(bound)), "drill"
        )
        execute_t.add(seconds)
        rows += len(result)
        cursor = conn.execute(sql, params)
        fetch_t.add(tr.timed("cursor.fetchall", "api", cursor.fetchall, "drill")[0])
    out.median("sql.execute_ms", execute_t, 1e3)
    out.put("sql.rows_per_result", rows / reps)
    out.median("api.fetch_ms", fetch_t, 1e3)

    miss_t, hit_t = Samples(), Samples()
    for _ in range(5):
        stmt = conn.prepare("SELECT COUNT(*) FROM f")
        miss_t.add(tr.timed("prepared COUNT (miss)", "api", lambda: stmt.execute().fetchall(), "drill")[0])
        hit_t.add(tr.timed("prepared COUNT (hit)", "api", lambda: stmt.execute().fetchall(), "drill")[0])
    out.median("api.memo_miss_ms", miss_t, 1e3)
    out.median("api.memo_hit_us", hit_t, 1e6)


def drill_closed_store(tr: Tracer, path: Path, out: Layers) -> None:
    """Manifest commit, CRC verification, tree recovery and fsck of a closed store."""
    storage = StorageManager(path / "f")
    manifest = storage.read_manifest(verify=True)
    out.put("storage.manifest_bytes", storage.manifest_path.stat().st_size)
    names = list(manifest.get("checksums") or {})
    seconds, _ = tr.timed(
        "StorageManager.partition_checksums", "storage",
        lambda: storage.partition_checksums(names), "drill",
    )
    out.put("storage.crc_verify_s", seconds)
    storage.set_expected_checksums(manifest.get("checksums"))
    seconds, _ = tr.timed(
        "ReTraTree.from_manifest", "qut",
        lambda: ReTraTree.from_manifest(manifest["tree"], storage=storage), "drill",
    )
    out.put("qut.recover_s", seconds)
    commit = Samples()
    for _ in range(5):
        commit.add(tr.timed(
            "StorageManager.write_manifest", "storage", lambda: storage.write_manifest(manifest), "drill"
        )[0])
    out.median("storage.manifest_commit_s", commit)
    storage.close()
    seconds, report = tr.timed("fsck_store", "storage", lambda: fsck_store(path), "drill")
    out.put("storage.fsck_s", seconds)
    if not report.clean:
        raise RuntimeError(f"fsck of {path} is not clean: {report.summary()}")


def put_storage(io: TimingIO, stats: dict[str, int], out: Layers) -> None:
    """The storage shim's counters and the buffer pools' statistics."""
    for key in ("write_calls", "write_bytes", "fsync_calls", "replace_calls"):
        out.put(f"storage.{key}", io.counts[key])
    for kind in ("fsync", "write", "read"):
        out.put(f"storage.{kind}_s", io.seconds[kind])
    out.put("storage.pool_hits", stats["hits"])
    out.put("storage.pool_misses", stats["misses"])
    out.put("storage.pool_hit_ratio", stats["hits"] / max(stats["hits"] + stats["misses"], 1))
    for key in ("pages_read", "pages_written", "io_retries"):
        out.put(f"storage.{key}", stats[key])


def replay_qut(tr: Tracer, tree, window: dict[str, float], kind: str = "op"):
    """Lookup, load and query of one window, as three ``qut`` spans.

    ``query`` repeats the lookup and the load inside, so
    ``merge = query - lookup - load``.
    """
    period = Period(window["wi"], window["we"])
    lookup_s, subchunks = tr.timed(
        "tree.subchunks_overlapping", "qut", lambda: tree.subchunks_overlapping(period), kind
    )

    def load():
        for subchunk in subchunks:
            for entry in subchunk.entries:
                tree.load_members(entry)
            tree.load_unclustered(subchunk)

    load_s, _ = tr.timed("tree.load_members + load_unclustered", "qut", load, kind)
    query_s, result = tr.timed("QuTClustering.query", "qut", lambda: QuTClustering(tree).query(period), kind)
    return result, lookup_s, load_s, query_s


class QutSamples:
    """Per-window QuT phase timings and exact counts."""

    def __init__(self) -> None:
        self.lookup, self.load, self.query = Samples(), Samples(), Samples()
        self.subchunks = self.entries = self.members = self.windows = 0

    def add(self, result, lookup_s: float, load_s: float, query_s: float) -> None:
        self.lookup.add(lookup_s)
        self.load.add(load_s)
        self.query.add(query_s)
        self.subchunks += result.extras["subchunks_touched"]
        self.entries += result.extras["entries_touched"]
        self.members += result.num_clustered + result.num_outliers
        self.windows += 1

    def put(self, out: Layers) -> None:
        out.median("qut.lookup_s", self.lookup)
        out.median("qut.load_s", self.load)
        out.median("qut.query_s", self.query)
        out.put("qut.merge_s", self.query.median - self.lookup.median - self.load.median)
        out.put("qut.subchunks_touched", self.subchunks / self.windows)
        out.put("qut.entries_touched", self.entries / self.windows)
        out.put("qut.members_returned", self.members / self.windows)


def replay_s2t(tr: Tracer, mod, frame: MODFrame, params: S2TParams, kind: str = "op"):
    """``S2TClustering.fit`` stage by stage.

    Returns the result, the seconds per stage and the counts the pipeline
    itself would put in ``result.extras`` (same keys).
    """
    seconds = {}
    seconds["voting"], profile = tr.timed(
        "compute_voting", "s2t", lambda: compute_voting(mod, params, frame=frame), kind
    )
    seconds["segmentation"], (subs, mass, _) = tr.timed(
        "segment_mod", "s2t", lambda: segment_mod(mod, profile, params, frame=frame), kind
    )
    seconds["sampling"], (reps, _) = tr.timed(
        "select_representatives", "s2t", lambda: select_representatives(subs, mass, params), kind
    )
    seconds["clustering"], (result, _) = tr.timed(
        "greedy_clustering", "s2t", lambda: greedy_clustering(subs, reps, params), kind
    )
    counts = {
        "num_subtrajectories": len(subs),
        "num_representatives": len(reps),
        "voting_pairs_evaluated": profile.pairs_evaluated,
        "voting_pairs_pruned": profile.pairs_pruned,
    }
    return result, seconds, counts


def put_s2t(result, seconds: dict[str, float], counts: dict[str, int], out: Layers) -> None:
    """Stage times and exact counts of one S2T replay."""
    for stage in STAGES:
        out.put(f"s2t.{stage}_s", seconds[stage])
    evaluated, pruned = counts["voting_pairs_evaluated"], counts["voting_pairs_pruned"]
    out.put("s2t.voting_pairs_evaluated", evaluated)
    out.put("s2t.voting_prune_ratio", pruned / max(evaluated + pruned, 1))
    out.put("s2t.subtrajectories", counts["num_subtrajectories"])
    out.put("s2t.representatives", counts["num_representatives"])
    out.put("s2t.clusters", result.num_clusters)
    out.put("s2t.outliers", result.num_outliers)


def s2t_params(mod) -> S2TParams:
    """The parameters ``SELECT S2T(f, NULL, NULL, 2, 'batched', …)`` resolves to."""
    return S2TParams(min_cluster_support=2, voting_strategy="batched").resolved(mod)


def overhead_share(traced: Samples, untraced: Samples) -> float:
    """(traced wall - untraced wall) / untraced wall of the primary operation."""
    return (traced.median - untraced.median) / untraced.median


def finish(run: wl.Run, tr: Tracer, out: Layers, notes: list[str]):
    """Check the layer expectations; return the records and the trace payload."""
    live = default_arena().live_segments()
    out.put("hermes.shm_live_segments", len(live))
    run.ops.check("no_live_shm_segments", not live, f"segments {live}")
    layers = tr.layer_self_seconds()
    total = sum(layers.values()) or 1.0
    shares = {layer: seconds / total for layer, seconds in sorted(layers.items())}
    expect = spec.EXPECT[run.workload]
    dominant = max(shares, key=shares.get) if shares else None
    run.ops.check("dominant_layer", dominant == expect["dominant"], f"largest self time: {dominant}")
    for layer in expect["idle"]:
        run.ops.check(
            f"idle_layer_{layer}", shares.get(layer, 0.0) <= spec.IDLE_SHARE,
            f"{layer} owns {shares.get(layer, 0.0):.1%}",
        )
    notes.append("layer self-time shares: " + ", ".join(f"{k} {v:.1%}" for k, v in shares.items()))
    records = out.records()
    notes.append(f"trace_overhead_share {records['trace.overhead_share']['value']:+.4f}")
    return records, {"layer_self_s": layers, "layer_share": shares, "spans": tr.spans}


# -- the traced scripts ---------------------------------------------------------


def both_ways(run: wl.Run, tr: Tracer, label: str, fn: Callable[[], object], i: int,
              traced: Samples, untraced: Samples) -> None:
    """One statement untraced and under an ``e2e`` span, one sample each.

    The order alternates with ``i`` so that neither side always pays what
    the first execution warms up.
    """
    tr.op += 1
    for enabled in ((False, True) if i % 2 == 0 else (True, False)):
        tr.enabled = enabled
        seconds, _ = run.ops.timed(label, lambda: tr.timed(label, "e2e", fn))
        (traced if enabled else untraced).add(seconds)
    tr.enabled = True


def facade_ops(run: wl.Run, tr: Tracer, label: str, fn: Callable[[int], object], after=None) -> float:
    """The primary statement ``traced_ops`` times, each :func:`both_ways`.

    ``after(i)`` (the replay) runs once operation ``i`` is done both ways.
    Returns the trace-overhead share.
    """
    untraced, traced = Samples(), Samples()
    for i in range(run.sizes.traced_ops):
        both_ways(run, tr, label, lambda: fn(i), i, traced, untraced)
        if after is not None:
            after(i)
    return overhead_share(traced, untraced)


def traced_s2t_batch(run: wl.Run, notes: list[str]):
    """Whole-MOD S2T: facade, stage-by-stage replay, scaling exponents."""
    tr, out = Tracer(run.workload), Layers()
    mod, _truth = wl.flights(run, run.seed)
    with tr.span("open_memory", "hermes", "setup"):
        conn = wl.open_memory(mod)
    sql = wl.s2t_sql(jobs=1)
    conn.execute(sql).fetchall()
    out.put("trace.overhead_share", facade_ops(run, tr, "SELECT S2T", lambda _i: conn.execute(sql).fetchall()))
    facade = result_digest(conn.engine.last_result("f"))

    tr.op += 1
    with tr.span("replay S2T", "e2e"):
        tr.timed("plan_sql + bind", "sql", lambda: bind_for_execution(plan_sql(sql), None))
        _, frame = tr.timed("engine.frame", "hermes", lambda: conn.engine.frame("f"))
        result, seconds, counts = replay_s2t(tr, mod, frame, s2t_params(mod))
    run.ops.check("replay_equals_facade", result_digest(result) == facade)
    put_s2t(result, seconds, counts, out)

    # Scaling exponents: log-log slope of each stage over n/4, n/2, n.
    sizes = [run.sizes.trajectories // 4, run.sizes.trajectories // 2, run.sizes.trajectories]
    by_stage = {stage: [seconds[stage]] for stage in STAGES}
    for n in reversed(sizes[:-1]):
        small, _ = aircraft_scenario(n_trajectories=n, n_samples=run.sizes.samples, seed=run.seed, name="f")
        _, stage_s, _ = replay_s2t(tr, small, MODFrame.from_mod(small), s2t_params(small), "drill")
        for stage in STAGES:
            by_stage[stage].insert(0, stage_s[stage])
    for stage in STAGES:
        out.put(f"s2t.{stage}_exp", np.polyfit(np.log(sizes), np.log(by_stage[stage]), 1)[0])

    drill_index(tr, drill_hermes(tr, mod, out), out)
    drill_sql_api(tr, conn, sql, None, 1, out)
    conn.close()
    return finish(run, tr, out, notes)


def traced_s2t_pooled(run: wl.Run, notes: list[str]):
    """Pooled S2T: facade, the same operator decomposed serially, pool drill."""
    tr, out = Tracer(run.workload), Layers()
    jobs = wl.pool_jobs()
    mod, _truth = wl.flights(run, run.seed)
    sql = wl.s2t_sql(jobs, spec.PARTITIONS)
    if 1 + 2 * run.sizes.traced_ops > spec.POOLED_CALLS_PER_CONNECTION:
        raise ValueError("warm-up + untraced + traced pooled calls exceed what one engine serves")
    with tr.span("open_memory", "hermes", "setup"):
        conn = wl.open_memory(mod)
    conn.execute(sql).fetchall()
    out.put("trace.overhead_share", facade_ops(
        run, tr, "SELECT S2T pooled", lambda _i: conn.execute(sql).fetchall()
    ))
    facade = result_digest(conn.engine.last_result("f"))
    frame = conn.engine.frame("f")
    conn.close()

    # The partitioned operator by hand: slice, fit each partition stage by
    # stage, merge.  Same clusters as the pooled statement, and the only
    # view of the s2t stages this process has (the pool's ran in workers).
    params = s2t_params(mod)
    totals = dict.fromkeys(STAGES, 0.0)
    parts = []
    tr.op += 1
    with tr.span("replay partitioned S2T", "e2e"):
        for period in mod.period.split(spec.PARTITIONS):
            _, piece = tr.timed("frame.slice_period", "hermes", lambda p=period: frame.slice_period(p))
            part, seconds, counts = replay_s2t(tr, piece.to_mod(name="partition"), piece, params)
            part.extras = counts  # what merge_partition_results sums
            parts.append(part)
            for stage in STAGES:
                totals[stage] += seconds[stage]
        _, merged = tr.timed(
            "merge_partition_results", "core.parallel", lambda: merge_partition_results(parts, params)
        )
    run.ops.check("replay_equals_facade", result_digest(merged) == facade)
    put_s2t(merged, totals, merged.extras, out)

    # Pool drill on a fresh engine: first call pays the pool start, the next
    # ones are warm; then the same operator on one process.
    engine = HermesEngine.in_memory()
    engine.load_mod("f", mod)
    engine.frame("f")
    s2t = S2TParams(min_cluster_support=2, voting_strategy="batched")
    pooled, phase_sum = Samples(), Samples()
    first_s = bytes_per_task = 0.0
    for call in range(spec.POOLED_CALLS_PER_CONNECTION):
        seconds, result = tr.timed(
            "engine.s2t pooled", "core.parallel",
            lambda: engine.s2t("f", s2t, n_jobs=jobs, n_partitions=spec.PARTITIONS), "drill",
        )
        if call == 0:
            first_s = seconds
            continue
        pooled.add(seconds)
        phase_sum.add(sum(result.timings.values()))
        bytes_per_task = result.extras.get("bytes_shipped_per_task", 0)
    serial = Samples([tr.timed(
        "engine.s2t serial partitioned", "core.parallel",
        lambda: engine.s2t("f", s2t, n_jobs=1, n_partitions=spec.PARTITIONS), "drill",
    )[0]])
    engine.close()
    out.median("core.parallel.pooled_s", pooled)
    out.median("core.parallel.serial_partitioned_s", serial)
    out.median("core.parallel.phase_sum_s", phase_sum)
    out.put("core.parallel.overhead_s", pooled.median - phase_sum.median / jobs)
    out.put("core.parallel.pool_cold_start_s", first_s - pooled.median)
    out.put("core.parallel.bytes_per_task", bytes_per_task)
    refusal = "fewer than 2 CPUs" if available_cpus() < 2 else ratio_note(serial, pooled)
    if refusal:
        notes.append(f"core.parallel.speedup refused: {refusal}")
    else:
        out.put("core.parallel.speedup", serial.median / pooled.median)

    drill_index(tr, drill_hermes(tr, mod, out), out)
    return finish(run, tr, out, notes)


def traced_qut_progressive(run: wl.Run, notes: list[str]):
    """Prepared QuT windows: facade, lookup/load/query replay on the same tree."""
    tr, out = Tracer(run.workload), Layers()
    io = TimingIO(tr)
    mod, _truth = wl.flights(run, run.seed)
    path = run.scratch / "store"
    with tr.span("open_store", "storage", "setup"):
        conn = wl.open_store(path, mod, io=io)
    io.reset()
    tree = conn.engine.retratree("f")
    windows = wl.progressive_windows(mod.period, run.sizes.traced_ops, run.seed)
    stmt = conn.prepare(wl.QUT_SQL)
    stmt.execute(windows[0]).fetchall()

    qut = QutSamples()

    def statement(i):
        return stmt.execute(windows[i]).fetchall()

    def replay(i):
        facade = result_digest(conn.engine.last_result("f"))
        with tr.span("replay QUT", "e2e"):
            tr.timed("bind", "sql", lambda: bind_for_execution(stmt.plan, windows[i]))
            result, *seconds = replay_qut(tr, tree, windows[i])
        qut.add(result, *seconds)
        run.ops.check("replay_equals_facade", result_digest(result) == facade)

    out.put("trace.overhead_share", facade_ops(run, tr, "prepared QUT", statement, replay))
    qut.put(out)

    prepared, direct = Samples(), Samples()
    for window in windows:
        prepared.add(tr.timed("prepared QUT", "api", lambda w=window: stmt.execute(w).fetchall(), "drill")[0])
        direct.add(tr.timed(
            "engine.qut", "qut",
            lambda w=window: conn.engine.qut("f", Period(w["wi"], w["we"])), "drill",
        )[0])
    out.put("api.overhead_ms", (prepared.median - direct.median) * 1e3)
    note = ratio_note(prepared, direct)
    if note:
        notes.append(f"api.overhead_ms: {note}")

    frame = drill_hermes(tr, mod, out)
    drill_index(tr, frame, out)
    out.put("qut.build_s", tr.timed("ReTraTree.build", "qut", lambda: ReTraTree.build(mod, frame=frame), "drill")[0])
    drill_sql_api(tr, conn, wl.QUT_SQL, windows[0], 20, out)
    put_storage(io, tree.storage.io_stats(), out)
    wl.close_store(conn)
    drill_closed_store(tr, path, out)
    return finish(run, tr, out, notes)


def traced_ingest_stream(run: wl.Run, notes: list[str]):
    """Appends under ``core.ingest`` spans with the storage shim's spans inside."""
    tr, out = Tracer(run.workload), Layers()
    io = TimingIO(tr)
    batches, base = run.sizes.traced_ops, run.sizes.trajectories
    trajs, period = wl.shuffled_lanes(run, run.seed, appended=batches * run.batch)
    path = run.scratch / "store"
    with tr.span("open_store", "storage", "setup"):
        conn = wl.open_store(path, MOD(name="f", trajectories=trajs[:base]), io=io)
    io.reset()
    window = wl.middle_window(period)
    stmt = conn.prepare(wl.QUT_SQL)
    stmt.execute(window).fetchall()
    dataset = conn.dataset("f")
    tree = conn.engine.retratree("f")

    reports, qut = [], QutSamples()
    untraced, traced = Samples(), Samples()
    for b in range(batches):
        batch = trajs[base + b * run.batch : base + (b + 1) * run.batch]
        tr.op += 1
        _, report = run.ops.timed(
            "append", lambda: tr.timed("Dataset.append", "core.ingest", lambda: dataset.append(batch))[1]
        )
        reports.append(report)
        # The first query after an append also rebuilds what the append
        # invalidated; it is not a sample.  Then the same statement runs
        # untraced and traced, then by layer.
        stmt.execute(window).fetchall()
        both_ways(run, tr, "prepared QUT", lambda: stmt.execute(window).fetchall(), b, traced, untraced)
        facade = result_digest(conn.engine.last_result("f"))
        with tr.span("replay QUT", "e2e"):
            result, *seconds = replay_qut(tr, tree, window)
        qut.add(result, *seconds)
        run.ops.check("replay_equals_facade", result_digest(result) == facade)
    out.put("trace.overhead_share", overhead_share(traced, untraced))
    qut.put(out)

    seconds = Samples([r.seconds for r in reports])
    counters = [r.tree_counters or {} for r in reports]
    out.median("core.ingest.append_s", seconds)
    out.put("core.ingest.s2t_runs", sum(c.get("s2t_runs", 0) for c in counters))
    out.put(
        "core.ingest.assigned_ratio",
        sum(c.get("assigned", 0) for c in counters) / max(sum(c.get("pieces", 0) for c in counters), 1),
    )
    third = max(1, batches // 3)

    def throughput(part):
        return sum(r.points for r in part) / sum(r.seconds for r in part)

    out.put("core.ingest.decay_ratio", throughput(reports[-third:]) / throughput(reports[:third]))

    put_storage(io, tree.storage.io_stats(), out)
    frame = drill_hermes(tr, conn.engine.get_mod("f"), out)
    drill_index(tr, frame, out)
    drill_sql_api(tr, conn, wl.QUT_SQL, window, 10, out)
    wl.close_store(conn)
    drill_closed_store(tr, path, out)
    return finish(run, tr, out, notes)


def traced_cold_recovery(run: wl.Run, notes: list[str]):
    """Cold open + first QuT: facade through the timing shim, then by layer."""
    tr, out = Tracer(run.workload), Layers()
    io = TimingIO(tr)
    path = run.scratch / "store"
    with tr.span("build_cold_store", "storage", "setup"):
        warm, window, _spare, _points = wl.build_cold_store(run, run.seed, path)
    period = Period(window["wi"], window["we"])
    facade = {}

    def cold_statement():
        # repro.connect() has no io argument; while the tracer is off this
        # is the plain path the untraced workload times.
        if not tr.enabled:
            return wl.cold_query(path, window)
        engine = HermesEngine.on_disk(path, io=io)
        try:
            rows = Connection(engine).execute(wl.QUT_SQL, window).fetchall()
            facade["digest"] = result_digest(engine.last_result("f"))
            facade["stats"] = engine.retratree("f").storage.io_stats()
            return rows
        finally:
            engine.close()

    recover = Samples()

    def replay(_i):
        with tr.span("replay cold open", "e2e"):
            storage = StorageManager(path / "f", io=io)
            try:
                _, manifest = tr.timed("read_manifest(verify=True)", "storage", lambda: storage.read_manifest(True))
                storage.set_expected_checksums(manifest.get("checksums"))
                seconds, tree = tr.timed(
                    "ReTraTree.from_manifest", "qut",
                    lambda: ReTraTree.from_manifest(manifest["tree"], storage=storage),
                )
                recover.add(seconds)
                _, result = tr.timed("QuTClustering.query", "qut", lambda: QuTClustering(tree).query(period))
            finally:
                storage.close()
        run.ops.check("replay_equals_facade", result_digest(result) == facade["digest"])

    def checked(_i):
        rows = cold_statement()
        run.ops.check("cold_equals_warm", rows == warm)
        return rows

    out.put("trace.overhead_share", facade_ops(run, tr, "cold open + QUT", checked, replay))
    put_storage(io, facade["stats"], out)

    conn = repro.connect(path)
    tree = conn.engine.retratree("f")
    qut = QutSamples()
    for _ in range(run.sizes.traced_ops):
        qut.add(*replay_qut(tr, tree, window, "drill"))
    qut.put(out)
    frame = drill_hermes(tr, conn.engine.get_mod("f"), out)
    drill_index(tr, frame, out)
    drill_sql_api(tr, conn, wl.QUT_SQL, window, 5, out)
    conn.close()
    drill_closed_store(tr, path, out)
    out.median("qut.recover_s", recover)  # the replays' samples, not the drill's one
    return finish(run, tr, out, notes)


TRACED: dict[str, Callable] = {
    "s2t_batch": traced_s2t_batch,
    "s2t_pooled": traced_s2t_pooled,
    "qut_progressive": traced_qut_progressive,
    "ingest_stream": traced_ingest_stream,
    "cold_recovery": traced_cold_recovery,
}
