"""Partition-parallel S2T execution over a persistent pool with shm frames.

The ReTraTree's own structure — temporal chunks — makes S2T-Clustering
embarrassingly parallel: the dataset's lifespan is split into ``n_partitions``
equal temporal partitions and an independent S2T pipeline is fitted per
partition.  Two things make the fan-out actually pay off:

* **Zero-copy frame transport.**  By default the dataset's *whole* frame is
  published once into a ``multiprocessing.shared_memory`` segment
  (:meth:`~repro.hermes.frame.MODFrame.to_shm`) and each task ships only the
  segment name plus the partition's period — a few hundred bytes instead of
  a per-partition column copy.  Workers attach the segment as zero-copy
  views (:meth:`~repro.hermes.frame.MODFrame.from_shm`, cached per process)
  and derive their partition frame locally with
  :meth:`~repro.hermes.frame.MODFrame.slice_period` — the *same* slice the
  serial path takes, so results stay bitwise identical.  When shared memory
  is unavailable (or a worker fails to attach) the job is retried with each
  task carrying its pre-sliced partition frame by value
  (:meth:`~repro.hermes.frame.MODFrame.to_payload`).
* **A persistent worker pool.**  :class:`WorkerPool` wraps a lazily started
  :class:`concurrent.futures.ProcessPoolExecutor` that survives across
  calls (the engine owns one: ``engine.pool()``), amortising fork + import
  cost; shutdown is explicit (``pool.shutdown()`` /
  ``engine.close()``).  Without a caller-provided pool, ``partitioned_s2t``
  creates a private one per call and shuts it down in a ``finally`` block.

Determinism: the partition layout depends only on the data (default
``n_partitions = 4``, matching the ReTraTree's default ``tau`` = a quarter of
the lifespan), parameters are resolved once against the *whole* MOD so every
partition shares the same ``sigma``/``eps``, and partition results are merged
in temporal order — therefore ``n_jobs=4`` produces bit-identical cluster
memberships to a serial (``n_jobs=1``) run of the same scheduler; the worker
pool and the transport only change wall-clock, never results.

Note the semantics: partitioned S2T cuts trajectories at partition
boundaries, so clusters cannot span partitions (exactly like the ReTraTree's
sub-chunk clustering).  It is therefore a different — coarser-grained —
operator than whole-MOD ``S2TClustering.fit``, traded for near-linear
scaling across cores.

Entry points: :func:`partitioned_s2t` (library),
``HermesEngine.s2t(name, n_jobs=...)`` (engine) and
``SELECT S2T(D, sigma, eps, gamma, strategy, jobs, partitions)`` (SQL).

:func:`scatter` is the pooled fan-out — publish, ship, retry by value,
degrade, drain.
"""

from __future__ import annotations

import pickle
from collections import Counter, OrderedDict
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from repro.hermes.frame import MODFrame
from repro.hermes.mod import MOD
from repro.hermes.shm import ShmArena, ShmTransportError
from repro.hermes.types import Period
from repro.s2t.params import S2TParams
from repro.s2t.pipeline import S2TClustering
from repro.s2t.result import ClusteringResult, Members

__all__ = [
    "DEFAULT_PARTITIONS",
    "WorkerPool",
    "partitioned_s2t",
    "merge_partition_results",
    "scatter",
]

# Default temporal fan-out: the ReTraTree's data-driven default chunk length
# is tau = lifespan / 4, i.e. four level-1 chunks per dataset.
DEFAULT_PARTITIONS = 4


class WorkerPool:
    """A lazily started, reusable process pool with explicit shutdown.

    The executor is created on first use and kept for subsequent calls, so
    consecutive parallel fits pay the fork + import cost once.  Requesting
    more workers than the current executor has recreates it (grow-only); a
    :class:`~concurrent.futures.process.BrokenProcessPool` is handled by
    :meth:`reset`, which discards the dead executor so the next call starts
    fresh.  ``created`` counts executor spin-ups — the pool-reuse regression
    test pins it at 1 across consecutive ``engine.s2t(..., n_jobs=4)`` calls.
    """

    def __init__(self) -> None:
        self._executor: ProcessPoolExecutor | None = None
        self._max_workers = 0
        self.created = 0

    def executor(self, n_jobs: int) -> ProcessPoolExecutor:
        """The shared executor, (re)created to hold at least ``n_jobs`` workers."""
        if self._executor is None or n_jobs > self._max_workers:
            self.shutdown()
            self._executor = ProcessPoolExecutor(max_workers=n_jobs)
            self._max_workers = n_jobs
            self.created += 1
        return self._executor

    def reset(self) -> None:
        """Discard a (possibly broken) executor; the next use starts fresh."""
        executor, self._executor, self._max_workers = self._executor, None, 0
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def shutdown(self) -> None:
        """Shut the executor down explicitly (idempotent)."""
        executor, self._executor, self._max_workers = self._executor, None, 0
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)


def _fit_partition(task: tuple[MODFrame, S2TParams]) -> ClusteringResult:
    """Fit one temporal partition (runs inside a worker process).

    The partition travels as a frame; the MOD is rebuilt from column views
    on the worker side, so the only serialized payload is the raw columns.
    """
    frame, params = task
    mod = frame.to_mod(name="partition")
    return S2TClustering(params).fit(mod, frame=frame)


# -- worker-side shared-memory attachment cache --------------------------------
#
# One arena + small caches per worker process: the first task touching a
# shipped segment attaches it (and rebuilds derived state once); subsequent
# tasks over the same dataset reuse the mapping.  The job's constant context
# (frame metadata + the resolved params) travels once per job in its own tiny
# control segment, so each task ships only segment names plus its period —
# a couple hundred bytes regardless of params size.  Evicted segments are
# closed through the arena.  Fork-start workers inherit the parent's
# (empty) caches.

_WORKER_ARENA = ShmArena()
_ATTACHED_FRAMES: "OrderedDict[str, MODFrame]" = OrderedDict()
_JOB_CONTEXTS: "OrderedDict[str, tuple]" = OrderedDict()
_ATTACH_CACHE_LIMIT = 4


def attached_frame(segment: str, meta: dict) -> MODFrame:
    """The worker-process view of a shipped frame, attached and cached."""
    frame = _ATTACHED_FRAMES.get(segment)
    if frame is None:
        frame = MODFrame.from_shm(segment, meta, arena=_WORKER_ARENA)
        _ATTACHED_FRAMES[segment] = frame
        while len(_ATTACHED_FRAMES) > _ATTACH_CACHE_LIMIT:
            # Keep the evicted name only: a live reference to the evicted
            # frame would pin numpy views into the mapping being closed
            # (BufferError: cannot close exported pointers exist).
            stale = _ATTACHED_FRAMES.popitem(last=False)[0]
            _WORKER_ARENA.release(stale)
    else:
        _ATTACHED_FRAMES.move_to_end(segment)
    return frame


def _job_context(control: str, nbytes: int) -> tuple:
    """The job's shared ``(frame meta, params)`` block, attached and cached."""
    ctx = _JOB_CONTEXTS.get(control)
    if ctx is None:
        shm = _WORKER_ARENA.attach(control)
        ctx = pickle.loads(bytes(shm.buf[:nbytes]))
        _JOB_CONTEXTS[control] = ctx
        while len(_JOB_CONTEXTS) > _ATTACH_CACHE_LIMIT:
            stale, _ = _JOB_CONTEXTS.popitem(last=False)
            _WORKER_ARENA.release(stale)
    else:
        _JOB_CONTEXTS.move_to_end(control)
    return ctx


def _publish_context(arena: ShmArena, payload: tuple) -> tuple[str, int]:
    """Pickle a job-constant payload into its own control segment."""
    blob = pickle.dumps(payload)
    shm = arena.create(len(blob))
    shm.buf[: len(blob)] = blob
    return shm.name, len(blob)


def _fit_partition_task(task: tuple) -> ClusteringResult:
    """Worker entry point: fit one partition from a tagged transport task.

    ``("shm", segment, control, nbytes, period)`` names the shipped dataset
    frame plus the job's control block (frame metadata and the resolved
    params), both attached and cached per worker process, and carries the
    partition's period; the partition is sliced locally — the identical
    ``frame.slice_period(period)`` the serial path performs, so transports
    never change results.  ``("pickle", piece_frame, params)`` carries the
    pre-sliced partition by value.
    """
    if task[0] == "shm":
        _, segment, control, nbytes, period = task
        meta, params = _job_context(control, nbytes)
        return _fit_partition((attached_frame(segment, meta).slice_period(period), params))
    _, piece, params = task
    return _fit_partition((piece, params))


def merge_partition_results(
    parts: list[ClusteringResult], params: S2TParams
) -> ClusteringResult:
    """Merge per-partition results into one :class:`ClusteringResult`.

    Cluster ids are re-numbered densely in partition order (each partition's
    local ids offset by the clusters merged so far), outliers are
    concatenated, per-phase timings are summed and the per-partition
    sub-trajectory/representative counts are aggregated.
    """
    clusters = []
    timings: Counter[str] = Counter()
    extras_sums: Counter[str] = Counter()
    next_id = 0
    for part in parts:
        for cluster in part.clusters:
            cluster.cluster_id = next_id
            next_id += 1
            clusters.append(cluster)
        timings.update(part.timings)
        for key in (
            "num_subtrajectories",
            "num_representatives",
            "voting_pairs_evaluated",
            "voting_pairs_pruned",
        ):
            extras_sums[key] += int(part.extras.get(key, 0))

    result = ClusteringResult(
        method="s2t",
        clusters=clusters,
        outliers=Members.concat(part.outliers for part in parts),
        params=params,
        timings=dict(timings),
    )
    result.extras = dict(extras_sums)
    return result


def _nonempty_periods(frame: MODFrame, periods: list[Period]) -> list[Period]:
    # A temporal partition with zero trajectories (sparse datasets with
    # gaps) is dropped here, before any slicing or fitting: it contributes
    # no clusters and no outliers, and because merge renumbers cluster ids
    # over the *fitted* partitions in temporal order, an empty partition
    # never shifts the renumbering — layouts with and without the gap agree
    # on ids.  ``lifespan_overlap`` shares slice_period's survival rule
    # (positive common lifespan), so this is exact, not a heuristic.
    kept = []
    for period in periods:
        lo, hi = frame.lifespan_overlap(period.tmin, period.tmax)
        if lo.size and bool(np.any(hi - lo > 0)):
            kept.append(period)
    return kept


def _mean_task_bytes(tasks: list[tuple]) -> int:
    total = sum(len(pickle.dumps(task)) for task in tasks)
    return int(round(total / max(len(tasks), 1)))


def partitioned_s2t(
    mod: MOD,
    params: S2TParams | None = None,
    n_jobs: int = 1,
    n_partitions: int | None = None,
    frame: MODFrame | None = None,
    pool: WorkerPool | None = None,
) -> ClusteringResult:
    """S2T-Clustering fitted per temporal partition, optionally in parallel.

    Parameters
    ----------
    mod:
        The dataset to cluster.
    params:
        S2T tuning knobs.  Data-driven thresholds are resolved against the
        *whole* MOD before partitioning, so all partitions agree on
        ``sigma``/``eps`` and results do not depend on the partition layout's
        local extents.
    n_jobs:
        Worker processes.  ``1`` runs the partition loop serially in-process
        (same results, no pool); ``> 1`` uses a process pool.  If the
        platform refuses to start a pool (or the pool breaks mid-job) the
        scheduler falls back to the serial loop.
    n_partitions:
        Temporal partition count; default :data:`DEFAULT_PARTITIONS`.
        Independent of ``n_jobs`` so results never depend on the worker
        count.
    frame:
        Optional prebuilt frame of ``mod`` (the engine's catalog entry);
        built once here otherwise.
    pool:
        Optional :class:`WorkerPool` to run on (the engine passes its
        persistent ``engine.pool()``).  Without one, a private pool is
        created for this call and shut down before returning.

    ``result.extras`` records the execution that happened: ``n_jobs`` is
    ``1`` whenever no pool ran (one non-empty partition, or the pool fell
    over), and a pooled run adds what :func:`scatter` reports —
    ``transport`` (``"shm"``, or ``"pickle"`` after a refused publish or
    attach) and ``bytes_shipped_per_task``.
    """
    if n_jobs < 1:
        raise ValueError("n_jobs must be at least 1")
    if n_partitions is not None and n_partitions < 1:
        raise ValueError("n_partitions must be at least 1")
    params = params or S2TParams()
    if len(mod) == 0:
        return ClusteringResult(method="s2t", clusters=[], outliers=[], params=params)
    if frame is None:
        frame = MODFrame.from_mod(mod)
    params = params.resolved(mod, frame)
    n_partitions = n_partitions or DEFAULT_PARTITIONS

    periods = frame.bbox.period.split(n_partitions)
    fitted = _nonempty_periods(frame, periods)

    parts: list[ClusteringResult] | None = None
    transport_info: dict = {}
    if n_jobs > 1 and len(fitted) > 1:
        parts, transport_info = scatter(
            frame, params, fitted, workers=min(n_jobs, len(fitted)), pool=pool
        )
    if parts is None:
        parts = [_fit_partition((frame.slice_period(p), params)) for p in fitted]
        n_jobs = 1  # no pool ran, or it fell over

    result = merge_partition_results(parts, params)
    result.extras.update(transport_info)
    _finish_extras(result, periods, fitted, n_jobs)
    return result


def scatter(
    frame: MODFrame,
    params: S2TParams,
    periods: Sequence[Period],
    *,
    workers: int,
    pool: WorkerPool | None,
) -> tuple[list[ClusteringResult] | None, dict]:
    """Fit one partition per period on a process pool, the frame shipped zero-copy.

    ``frame`` is published into a per-call
    :class:`~repro.hermes.shm.ShmArena`, the job-constant ``params`` into a
    control segment beside it, and each task is
    ``("shm", segment, control, nbytes, period)``.  When the publish is
    refused, or a worker cannot attach, the whole job runs by value instead:
    ``("pickle", frame.slice_period(period), params)`` tasks.

    Returns ``(results, info)`` in period order.  Only the *pool* failing
    degrades: a :class:`~concurrent.futures.process.BrokenProcessPool`
    (worker killed mid-job, or a platform that refuses to start one) resets
    the pool and returns ``(None, info)`` with ``info["pool_error"]`` set,
    for the caller to run in-process.  An exception raised by a fit
    propagates.  ``info`` records ``transport``, ``bytes_shipped_per_task``,
    ``transport_setup_bytes`` (shm) and ``shm_error`` (after a fallback).
    The arena is drained on every way out, so no ``/dev/shm`` segment
    outlives the call even on worker crashes or ``KeyboardInterrupt``; a
    pool created here (``pool=None``) is shut down too.
    """
    info: dict = {}
    owned_pool = pool is None
    run_pool = pool if pool is not None else WorkerPool()

    def run(transport: str, tasks: list[tuple]) -> list[ClusteringResult]:
        info["transport"] = transport
        info["bytes_shipped_per_task"] = _mean_task_bytes(tasks)
        try:
            results = run_pool.executor(workers).map(_fit_partition_task, tasks)
        except OSError as exc:
            # Refused while *starting* the pool (sandboxes that forbid
            # semaphores or fork fail in the executor's constructor or at
            # submit): no pool here.  An OSError raised by a fit arrives
            # with the results below and propagates like any worker error.
            raise BrokenProcessPool(repr(exc)) from exc
        return list(results)

    with ShmArena() as arena:
        try:
            try:
                segment, meta = frame.to_shm(arena)
                control, nbytes = _publish_context(arena, (meta, params))
                info["transport_setup_bytes"] = nbytes
                tasks = [("shm", segment, control, nbytes, p) for p in periods]
                return run("shm", tasks), info
            except ShmTransportError as exc:
                # The publish was refused, or a worker could not attach the
                # published segment (fault injection, exotic platforms):
                # run the whole job by value on the same pool.
                info["shm_error"] = repr(exc)
                tasks = [("pickle", frame.slice_period(p), params) for p in periods]
                return run("pickle", tasks), info
        except BrokenProcessPool as exc:
            run_pool.reset()
            info["pool_error"] = repr(exc)
            return None, info
        finally:
            if owned_pool:
                run_pool.shutdown()


def _finish_extras(
    result: ClusteringResult,
    periods: list[Period],
    fitted: list[Period],
    n_jobs: int,
) -> None:
    result.extras.update(
        {
            "execution": "partitioned",
            "n_jobs": n_jobs,
            "n_partitions": len(periods),
            "partitions_fitted": len(fitted),
            "partitions_empty": len(periods) - len(fitted),
            "partition_bounds": [(p.tmin, p.tmax) for p in periods],
        }
    )
