"""The five workloads, tracing off: set-up, timed script, output checks.

Every workload is a closed loop with one client: the next statement is
issued when the previous one has returned and its rows were fetched.  All
inputs come from :mod:`repro.datagen` with the run's seed; the program only
ever sees the generated trajectories.  Statements go through
``repro.connect()`` / ``Connection`` / ``PreparedStatement``.

A run is ``sizes.setups`` *rounds* (:func:`rounds`): each round generates its
own dataset from a seed derived from the run's, sets up on it (generate
inputs, open the connection, load the dataset, build the derived state the
timed script starts from), runs its share of the timed operations and tears
down.  How long a statement takes depends on the data (clusters found,
sub-chunks touched), so one dataset per run made the medians move 8-13 %
with the seed; a run's medians over several datasets move a third to half
as much at the same cost.  ``setup_s`` is the median over the rounds.  Each
function returns the workload's metric records; ``run.py`` adds
``peak_rss_mb`` and ``failed_ops_share`` once every child process has been
reaped and every check has been counted.
"""

from __future__ import annotations

import gc
import shutil
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro
from repro.api import Connection
from repro.core.engine import HermesEngine
from repro.datagen import aircraft_scenario, lane_scenario
from repro.eval.metrics import clustering_quality
from repro.hermes.mod import MOD
from repro.hermes.shm import default_arena
from repro.storage.faults import FaultInjector, InjectedCrash

import spec
from harness import (
    CountingIO,
    Ops,
    Samples,
    available_cpus,
    clock,
    directory_bytes,
    leaked_shm_segments,
    metric,
    rows_digest,
    shm_segments,
)

QUT_SQL = "SELECT QUT(f, :wi, :we)"
POINT_BYTES = 24  # three float64 columns per appended sample
VERIFY_CALLS = 2  # per round
CHECK_WINDOWS = 5
# The crash check kills the process at a seeded mutating OS call below this
# index; an append of 20 trajectories makes ~300 of them.
CRASH_WITHIN_OPS = 40


def s2t_sql(jobs: int, partitions: int | None = None) -> str:
    """The S2T statement: whole-MOD fit, or the partitioned operator."""
    tail = "" if partitions is None else f", {partitions}"
    return f"SELECT S2T(f, NULL, NULL, 2, 'batched', {jobs}{tail})"


@dataclass
class Run:
    """One run of one workload: its arguments, sizes, scratch space, checks."""

    workload: str
    seed: int
    seconds: float
    smoke: bool
    scratch: Path
    sizes: spec.Sizes = field(init=False)
    ops: Ops = field(default_factory=Ops)

    def __post_init__(self) -> None:
        self.sizes = spec.sizes(self.workload, self.smoke, self.seconds)

    @property
    def batch(self) -> int:
        """Trajectories per appended batch."""
        return spec.APPEND_BATCH[self.smoke]


# -- inputs -------------------------------------------------------------------


def rounds(run: Run, at_most: int | None = None) -> Iterator[tuple[int, int, int]]:
    """``(index, data seed, timed operations)`` of each round of the run.

    ``sizes.setups`` rounds share ``sizes.ops`` evenly; ``at_most`` caps the
    operations of one round by adding rounds.  Seeds of different runs never
    meet (a run has far fewer than 100 rounds).  A round starts from a
    collected heap, as a fresh process would: whatever cycles the previous
    round's engine left behind otherwise sit under the next round's peak.
    """
    ops = run.sizes.ops
    n = min(run.sizes.setups, ops)
    if at_most is not None:
        n = max(n, -(-ops // at_most))
    for i in range(n):
        gc.collect()
        yield i, run.seed * 100 + i, ops // n + (i < ops % n)


def flights(run: Run, seed: int):
    """The aircraft MOD of the S2T and QuT workloads, with its planted truth."""
    return aircraft_scenario(
        n_trajectories=run.sizes.trajectories, n_samples=run.sizes.samples,
        seed=seed, name="f",
    )


def shuffled_lanes(run: Run, seed: int, appended: int):
    """Lane trajectories in seeded random arrival order, plus their lifespan.

    Unshuffled, the generator emits every outlier last, so a stream would
    end in a tail of pure noise and append throughput would collapse there.
    """
    mod, _truth = lane_scenario(
        n_trajectories=run.sizes.trajectories + appended, n_samples=run.sizes.samples,
        seed=seed, name="f",
    )
    trajs = mod.trajectories()
    order = np.random.default_rng(seed).permutation(len(trajs))
    return [trajs[i] for i in order], mod.period


def middle_window(period) -> dict[str, float]:
    """The fixed middle 60 % of a lifespan, as QuT bindings.

    Wide on purpose: a narrow window's cost hinges on where its edges fall
    in the sub-chunk grid, which moves with the seed (latency spread across
    seeds: 6 % at this width, 14 % at 30 %, over 50 % at 10 %).
    """
    return {"wi": period.tmin + 0.2 * period.duration, "we": period.tmin + 0.8 * period.duration}


def progressive_windows(period, n: int, seed: int) -> list[dict[str, float]]:
    """``n`` windows 5-60 % of the lifespan wide; every 5th repeats an earlier one.

    Widths and positions are even grids paired in seeded order, not draws:
    latency follows width, and the median of 200 drawn windows would move
    6 % with the seed before the program did anything different.
    """
    rng = np.random.default_rng(seed)
    fresh = n - n // 5
    widths = rng.permutation(np.linspace(0.05, 0.6, fresh)) * period.duration
    places = rng.permutation((np.arange(fresh) + 0.5) / fresh)
    out: list[dict[str, float]] = []
    for i in range(n):
        if i % 5 == 4:
            out.append(out[int(rng.integers(len(out)))])
            continue
        k = i - i // 5
        start = period.tmin + places[k] * (period.duration - widths[k])
        out.append({"wi": float(start), "we": float(start + widths[k])})
    return out


# -- set-up helpers (shared with the traced scripts) --------------------------------


def open_memory(mod) -> Connection:
    """An in-memory connection with ``mod`` registered and its frame built."""
    conn = repro.connect()
    conn.engine.load_mod("f", mod)
    conn.engine.frame("f")
    return conn


def open_store(path: Path, mod, io=None, tree: bool = True) -> Connection:
    """A durable connection with ``mod`` archived, its frame and ReTraTree built.

    ``io`` substitutes the storage layer's OS-call shim; ``repro.connect``
    has no such argument, so the engine is opened directly in that case and
    :func:`close_store` releases it.  ``tree=False`` leaves the bulk load to
    the caller (who times it).
    """
    if io is None:
        conn = repro.connect(path)
    else:
        conn = Connection(HermesEngine.on_disk(path, io=io))
    conn.engine.load_mod("f", mod)
    conn.engine.frame("f")
    if tree:
        conn.engine.retratree("f")
    return conn


def close_store(conn: Connection) -> None:
    """Close a connection from :func:`open_store` and its engine."""
    conn.close()
    conn.engine.close()


def trajectory_count(conn: Connection) -> int:
    """Trajectories the connection sees in dataset ``f``."""
    return int(conn.execute("SELECT SUMMARY(f)").fetchall()[0]["trajectories"])


def rate(*timed: Samples) -> float:
    """Operations per second of their own summed wall, over one round's samples."""
    return sum(len(s) for s in timed) / sum(s.total for s in timed)


def gated(lat: Samples, setup: Samples, rates: Samples) -> dict[str, dict]:
    """The metric records every workload reports.

    ``rates`` holds one :func:`rate` per round and ``ops_per_s`` is their
    median: the host has slow phases of several seconds, and one of them
    inside a run moved a rate taken over the whole run twice as far as it
    moved the median latency.
    """
    return {
        "op_p50_ms": metric("op_p50_ms", lat.median * 1e3, lat, 1e3),
        "ops_per_s": metric("ops_per_s", rates.median, rates),
        "setup_s": metric("setup_s", setup.median, setup),
    }


# -- s2t_batch ----------------------------------------------------------------


def s2t_batch(run: Run) -> dict[str, dict]:
    """Whole-MOD S2T statements on an in-memory dataset."""
    sql = s2t_sql(jobs=1)
    setup, lat, rates, ari = Samples(), Samples(), Samples(), Samples()
    for i, seed, ops in rounds(run):
        def build():
            mod, truth = flights(run, seed)
            return open_memory(mod), truth

        conn, truth = setup.timed(build)
        digests = set()
        if i == 0:  # warm-up: first-call allocations, lazy imports
            digests.add(rows_digest(conn.execute(sql).fetchall()))
        rows, mine = None, Samples()
        for _ in range(ops):
            seconds, rows = run.ops.timed("s2t", lambda: conn.execute(sql).fetchall())
            mine.add(seconds)
            digests.add(rows_digest(rows))
        lat.extend(mine)
        rates.add(rate(mine))
        run.ops.check("s2t_repeatable", len(digests) == 1 and len(rows or ()) > 1)
        ari.add(clustering_quality(conn.engine.last_result("f"), truth).ari)
        conn.close()
    return gated(lat, setup, rates) | {"s2t_ari": metric("s2t_ari", ari.median, ari)}


# -- s2t_pooled ---------------------------------------------------------------


def pool_jobs() -> int:
    """Worker processes of the pooled workload: at most 2, at most the CPUs."""
    return min(2, available_cpus())


def s2t_pooled(run: Run) -> dict[str, dict]:
    """The partitioned S2T operator on the engine's worker pool.

    A round is one dataset on one connection (which serves at most
    ``POOLED_CALLS_PER_CONNECTION`` pooled calls, see spec.py).  Every timed
    result must equal the round's warm-up result, the first round's also the
    same operator run serially, and no shared-memory segment may outlive the
    run.
    """
    shm_before = shm_segments()
    sql = s2t_sql(pool_jobs(), spec.PARTITIONS)
    setup, lat, rates, ari = Samples(), Samples(), Samples(), Samples()
    for i, seed, ops in rounds(run, at_most=spec.POOLED_CALLS_PER_CONNECTION - 1):
        def build():
            mod, truth = flights(run, seed)
            return open_memory(mod), truth

        conn, truth = setup.timed(build)
        if i == 0:
            _, serial = run.ops.timed(
                "s2t_serial_partitioned",
                lambda: conn.execute(s2t_sql(1, spec.PARTITIONS)).fetchall(),
            )
        # First pooled call on a connection starts its pool: warm-up, not a sample.
        expected = rows_digest(conn.execute(sql).fetchall())
        if i == 0:
            run.ops.check("pooled_equals_serial", expected == rows_digest(serial))
        mine = Samples()
        for _ in range(ops):
            seconds, rows = run.ops.timed("s2t_pooled", lambda: conn.execute(sql).fetchall())
            mine.add(seconds)
            run.ops.check("pooled_repeatable", rows_digest(rows) == expected)
        lat.extend(mine)
        rates.add(rate(mine))
        ari.add(clustering_quality(conn.engine.last_result("f"), truth).ari)
        conn.close()
    leaked = leaked_shm_segments(shm_before)
    run.ops.check(
        "no_shm_left_behind",
        not leaked and not default_arena().live_segments(),
        f"segments {sorted(leaked)}",
    )
    return gated(lat, setup, rates) | {"s2t_ari": metric("s2t_ari", ari.median, ari)}


# -- qut_progressive ----------------------------------------------------------


def qut_progressive(run: Run) -> dict[str, dict]:
    """Prepared QuT window queries on a durable, warm ReTraTree."""
    setup, tree_build, lat, rates = Samples(), Samples(), Samples(), Samples()
    for i, seed, ops in rounds(run):
        path = run.scratch / f"store{i}"

        def build():
            mod, _truth = flights(run, seed)
            conn = open_store(path, mod, tree=False)
            tree_build.timed(lambda: conn.engine.retratree("f"))
            return conn, mod

        conn, mod = setup.timed(build)
        windows = progressive_windows(mod.period, ops, seed)
        stmt = conn.prepare(QUT_SQL)
        for window in windows[:3]:
            stmt.execute(window).fetchall()
        mine = Samples()
        for window in windows:
            seconds, rows = run.ops.timed("qut", lambda w=window: stmt.execute(w).fetchall())
            mine.add(seconds)
            run.ops.check("qut_rows", bool(rows))
        lat.extend(mine)
        rates.add(rate(mine))
        if i == 0:
            for window in windows[:CHECK_WINDOWS]:
                fluent = conn.dataset("f").qut(window["wi"], window["we"]).run()
                run.ops.check("sql_equals_fluent", stmt.execute(window).fetchall() == fluent)
        conn.close()
        shutil.rmtree(path)
    return gated(lat, setup, rates) | {
        "tree_build_s": metric("tree_build_s", tree_build.median, tree_build),
        "op_p95_ms": metric("op_p95_ms", lat.percentile(95) * 1e3),
    }


# -- ingest_stream ------------------------------------------------------------


def ingest_stream(run: Run) -> dict[str, dict]:
    """Append batches beside a fixed-window QuT on the same durable tree."""
    base = run.sizes.trajectories
    setup, appends, lat, rates = Samples(), Samples(), Samples(), Samples()
    points = stored_points = stored_bytes = fsyncs = written = 0
    for i, seed, batches in rounds(run):
        path = run.scratch / f"store{i}"
        io = CountingIO()

        def build():
            trajs, period = shuffled_lanes(run, seed, appended=batches * run.batch)
            return open_store(path, MOD(name="f", trajectories=trajs[:base]), io=io), trajs, period

        conn, trajs, period = setup.timed(build)
        window = middle_window(period)
        stmt = conn.prepare(QUT_SQL)
        stmt.execute(window).fetchall()
        dataset = conn.dataset("f")

        acknowledged = base
        rows, wrote, read = None, Samples(), Samples()
        for b in range(batches):
            batch = trajs[base + b * run.batch : base + (b + 1) * run.batch]
            before = (io.fsync_calls, io.write_bytes)
            seconds, report = run.ops.timed("append", lambda: dataset.append(batch))
            wrote.add(seconds)
            fsyncs += io.fsync_calls - before[0]
            written += io.write_bytes - before[1]
            if report is not None:
                points += report.points
                acknowledged += report.trajectories
            seconds, rows = run.ops.timed("qut", lambda: stmt.execute(window).fetchall())
            read.add(seconds)
        close_store(conn)
        appends.extend(wrote)
        lat.extend(read)
        rates.add(rate(wrote, read))

        stored_bytes += directory_bytes(path)
        stored_points += acknowledged * run.sizes.samples
        cold = repro.connect(path)
        run.ops.check("acknowledged_appends_survive_restart", trajectory_count(cold) == acknowledged)
        run.ops.check("cold_qut_equals_warm", cold.execute(QUT_SQL, window).fetchall() == rows)
        cold.close()
        shutil.rmtree(path)

    return gated(lat, setup, rates) | {
        "append_points_per_s": metric("append_points_per_s", points / appends.total),
        "fsyncs_per_append": metric("fsyncs_per_append", fsyncs / len(appends)),
        "write_amp": metric("write_amp", written / (POINT_BYTES * max(points, 1))),
        "disk_bytes_per_point": metric("disk_bytes_per_point", stored_bytes / stored_points),
    }


# -- cold_recovery ------------------------------------------------------------


def build_cold_store(run: Run, seed: int, path: Path):
    """A closed store: base load + persisted tree + appended deltas.

    Returns the warm answer to the middle-window QuT, the bindings, the
    trajectories left over for the crash check and the stored point count.
    """
    deltas = spec.COLD_DELTAS
    base = run.sizes.trajectories
    trajs, period = shuffled_lanes(run, seed, appended=(deltas + 1) * run.batch)
    conn = open_store(path, MOD(name="f", trajectories=trajs[:base]))
    for d in range(deltas):
        conn.dataset("f").append(trajs[base + d * run.batch : base + (d + 1) * run.batch])
    window = middle_window(period)
    warm = conn.execute(QUT_SQL, window).fetchall()
    conn.close()
    stored = base + deltas * run.batch
    return warm, window, trajs[stored:], stored * run.sizes.samples


def cold_query(path: Path, window: dict[str, float]) -> list[dict]:
    """Open the store, answer one QuT from disk, close."""
    conn = repro.connect(path)
    try:
        return conn.execute(QUT_SQL, window).fetchall()
    finally:
        conn.close()


def crash_check(run: Run, seed: int, path: Path, batch) -> None:
    """Kill the process at a seeded OS call inside an append, then reopen.

    The reopened store must hold the trajectories from before the append or
    all of them; a dead injector refuses every later call, so nothing the
    doomed engine does afterwards reaches the disk.
    """
    conn = repro.connect(path)
    before = trajectory_count(conn)
    conn.close()
    injector = FaultInjector()
    injector.arm_crash(at_op=int(np.random.default_rng(seed).integers(0, CRASH_WITHIN_OPS)))
    engine = HermesEngine.on_disk(path, io=injector)
    try:
        Connection(engine).dataset("f").append(batch)
        engine.close()  # the append finished below the armed op: a clean post-state
    except InjectedCrash:
        pass
    del engine
    conn = repro.connect(path)
    after = trajectory_count(conn)
    conn.close()
    run.ops.check(
        "crash_lands_on_pre_or_post", after in (before, before + len(batch)),
        f"{before} before, {after} after, batch of {len(batch)}",
    )


def cold_recovery(run: Run) -> dict[str, dict]:
    """Reopen a closed store and answer the first QuT from disk."""
    setup, lat, rates = Samples(), Samples(), Samples()
    stored_bytes = stored_points = 0
    for i, seed, ops in rounds(run):
        path = run.scratch / f"store{i}"
        warm, window, spare, points = setup.timed(lambda: build_cold_store(run, seed, path))
        opened, verify = Samples(), Samples()
        for _ in range(ops):
            seconds, rows = run.ops.timed("cold_open_query", lambda: cold_query(path, window))
            opened.add(seconds)
            run.ops.check("cold_equals_warm", rows == warm)

        conn = repro.connect(path)
        for _ in range(VERIFY_CALLS):
            seconds, report = run.ops.timed("verify", conn.verify)
            verify.add(seconds)
            run.ops.check("verify_clean", report is not None and report.clean)
        conn.close()
        lat.extend(opened)
        rates.add(rate(opened, verify))
        stored_bytes += directory_bytes(path)
        stored_points += points
        if i == 0:
            crash_check(run, seed, path, spare)
        shutil.rmtree(path)
    return gated(lat, setup, rates) | {
        "disk_bytes_per_point": metric("disk_bytes_per_point", stored_bytes / stored_points),
    }


WORKLOADS: dict[str, Callable[[Run], dict[str, dict]]] = {
    "s2t_batch": s2t_batch,
    "s2t_pooled": s2t_pooled,
    "qut_progressive": qut_progressive,
    "ingest_stream": ingest_stream,
    "cold_recovery": cold_recovery,
}
