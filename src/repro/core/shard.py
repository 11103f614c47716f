"""Shard-local ReTraTrees with scatter-gather QuT.

The paper's architecture is *distributed*: the dataset is range-partitioned,
every node builds its own local index, and queries scatter to the nodes and
gather their partial answers.  This module is that design scaled down to one
box — the seam for multi-machine later:

* :class:`ShardPlan` splits the dataset's level-1 chunk axis (the ReTraTree's
  ``tau``-grid) into ``N`` contiguous, disjoint ownership windows.  The grid
  itself — origin and resolved parameters — is computed **once over the
  whole MOD**, never per shard, so every shard agrees on where sub-chunk
  boundaries fall.
* Each shard builds its own :class:`~repro.qut.retratree.ReTraTree` over its
  window (:meth:`~repro.qut.retratree.ReTraTree.build_shard`): the *whole*
  dataset frame is broadcast (free over the shared-memory transport of
  :mod:`repro.core.parallel`) and the tree's ``chunk_range`` gate keeps only
  the owned pieces.  Builds run on the engine's worker pool; each worker
  returns a compact record-level export that the parent re-archives into the
  dataset's storage (:func:`export_shard_tree` / :func:`import_shard_tree`),
  byte-for-byte the state an in-process build would have produced.  Any pool
  or transport failure degrades to the identical serial in-process build.
* :class:`ShardedReTraTree` is the gather side: it exposes the exact
  interface :class:`~repro.qut.query.QuTClustering` consumes
  (``subchunks_overlapping`` / ``load_members`` / ``load_unclustered`` /
  ``params`` / ``recovered``), broadcasting the window to every shard and
  merging the overlapping sub-chunks **in global temporal order**.

Equivalence guarantee: shard windows partition the chunk axis, every shard
shares the single-tree grid, and each shard's bulk load walks the same rows
through the same partition-frame slices — so the union of shard sub-chunks
is *bit-identical* to the single tree's sub-chunks, and QuT over the facade
returns bit-identical clusters for every window and every ``N`` (pinned by
``tests/core/test_shard.py``, the same discipline as the scheduler's
serial/parallel equality).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

from repro.core.parallel import WorkerPool, attached_frame
from repro.hermes.frame import MODFrame
from repro.hermes.shm import ShmArena, ShmTransportError
from repro.hermes.trajectory import Trajectory
from repro.index.rtree3d import RTree3D
from repro.qut.params import QuTParams
from repro.qut.retratree import (
    ClusterEntry,
    ReTraTree,
    SubChunk,
    _record_to_subtrajectory,
)
from repro.storage.catalog import StorageManager
from repro.storage.records import encode_record

__all__ = [
    "ShardPlan",
    "ShardedReTraTree",
    "build_sharded_tree",
    "export_shard_tree",
    "import_shard_tree",
    "tree_layout",
]


@dataclass(frozen=True)
class ShardPlan:
    """Contiguous ownership windows over the ReTraTree's level-1 chunk axis.

    ``count`` is the *requested* shard count (the engine's cache identity);
    ``ranges`` holds the effective windows — at most ``count``, fewer when
    the dataset spans fewer chunks than shards requested.  Windows are
    half-open ``[lo, hi)`` with the first ``lo`` and last ``hi`` left open
    (``None``), so appends that extend the grid in either direction still
    route to exactly one shard.
    """

    count: int
    n_chunks: int
    ranges: tuple[tuple[int | None, int | None], ...]

    @classmethod
    def for_layout(cls, duration: float, tau: float, count: int) -> "ShardPlan":
        """Plan ``count`` shards over a dataset spanning ``duration`` seconds.

        ``tau`` is the resolved level-1 chunk length; the chunk axis holds
        ``ceil(duration / tau)`` chunks, distributed over the shards as
        evenly as possible (earlier shards take the remainder).
        """
        if count < 1:
            raise ValueError("shard count must be at least 1")
        if tau <= 0:
            raise ValueError("tau must be positive")
        n_chunks = max(1, math.ceil(duration / tau - 1e-9))
        effective = max(1, min(count, n_chunks))
        base, rem = divmod(n_chunks, effective)
        ranges: list[tuple[int | None, int | None]] = []
        lo = 0
        for i in range(effective):
            hi = lo + base + (1 if i < rem else 0)
            ranges.append((lo, hi))
            lo = hi
        first_lo, first_hi = ranges[0]
        ranges[0] = (None, first_hi)
        last_lo, _ = ranges[-1]
        ranges[-1] = (last_lo if len(ranges) > 1 else None, None)
        return cls(count=count, n_chunks=n_chunks, ranges=tuple(ranges))

    def to_manifest(self) -> dict:
        """JSON-friendly form for the storage-catalog manifest."""
        return {
            "count": self.count,
            "n_chunks": self.n_chunks,
            "ranges": [list(r) for r in self.ranges],
        }

    @classmethod
    def from_manifest(cls, data: dict) -> "ShardPlan":
        """Inverse of :meth:`to_manifest`."""
        return cls(
            count=int(data["count"]),
            n_chunks=int(data["n_chunks"]),
            ranges=tuple(
                (None if lo is None else int(lo), None if hi is None else int(hi))
                for lo, hi in data["ranges"]
            ),
        )


# -- worker protocol -----------------------------------------------------------


def export_shard_tree(tree: ReTraTree) -> dict:
    """Flatten a freshly built shard tree into a picklable record payload.

    Workers build their shard over private in-memory storage; what crosses
    back to the parent is the *final* state only — per sub-chunk, the
    unclustered records and per entry the representative plus member records
    (raw encoded bytes, in heapfile scan order = insertion order).
    :func:`import_shard_tree` re-archives them in the same order, so the
    parent-side tree is indistinguishable from one built in process.
    """
    subchunks = []
    for sc in tree.subchunks():
        entries = []
        for entry in sc.entries:
            info = tree.storage.get(entry.partition_name)
            members = [raw for _rid, raw in info.heapfile.scan_records()]
            entries.append(
                {
                    "cluster_id": entry.cluster_id,
                    "representative": encode_record(entry.representative),
                    "members": members,
                }
            )
        unclustered_info = tree.storage.get(sc.unclustered_partition)
        subchunks.append(
            {
                "chunk_idx": sc.chunk_idx,
                "sub_idx": sc.sub_idx,
                "unclustered": [raw for _rid, raw in unclustered_info.heapfile.scan_records()],
                "entries": entries,
            }
        )
    return {
        "origin": tree.origin,
        "chunk_range": tree.chunk_range,
        "next_cluster_id": tree._next_cluster_id,
        "params": tree.params,
        "raw_params": tree.raw_params,
        "subchunks": subchunks,
    }


def import_shard_tree(
    payload: dict, storage: StorageManager | None, name: str
) -> ReTraTree:
    """Rebuild a shard tree from :func:`export_shard_tree` output.

    Archives every record through the tree's normal
    :meth:`~repro.qut.retratree.ReTraTree._archive` path (heapfile +
    pg3D-Rtree), in export order, into ``storage`` under partition names
    prefixed by ``name`` — producing exactly the partitions a serial
    in-process :meth:`~repro.qut.retratree.ReTraTree.build_shard` with the
    same ``name`` would have written.
    """
    tree = ReTraTree(
        params=payload["raw_params"],
        storage=storage,
        origin=float(payload["origin"]),
        name=name,
        chunk_range=payload["chunk_range"],
    )
    tree.params = payload["params"]
    for sc_data in payload["subchunks"]:
        subchunk = tree._get_subchunk(int(sc_data["chunk_idx"]), int(sc_data["sub_idx"]))
        for raw in sc_data["unclustered"]:
            tree._archive(subchunk.unclustered_partition, _record_to_subtrajectory(raw))
            subchunk.unclustered_count += 1
        for entry_data in sc_data["entries"]:
            cluster_id = int(entry_data["cluster_id"])
            entry = ClusterEntry(
                cluster_id=cluster_id,
                representative=_record_to_subtrajectory(entry_data["representative"]),
                partition_name=(
                    f"{name}_part_{subchunk.chunk_idx}_{subchunk.sub_idx}_{cluster_id}"
                ),
            )
            tree.storage.get_or_create(entry.partition_name)
            tree._rtrees[entry.partition_name] = RTree3D(max_entries=16)
            for raw in entry_data["members"]:
                member = _record_to_subtrajectory(raw)
                tree._archive(entry.partition_name, member)
                entry.member_count += 1
                entry.expand_bbox(member.bbox)
            subchunk.entries.append(entry)
        subchunk.touch_entries()
    tree._next_cluster_id = int(payload["next_cluster_id"])
    return tree


def _build_shard_task(task: tuple) -> dict:
    """Worker entry point: build one shard tree and export it.

    ``("shm", segment, meta, raw, resolved, origin, chunk_range, name)``
    attaches the broadcast dataset frame zero-copy;
    ``("pickle", frame, ...)`` is the fallback wire format carrying the
    whole frame by value.  Either way the build itself is identical.
    """
    kind = task[0]
    if kind == "shm":
        _, segment, meta, raw, resolved, origin, chunk_range, name = task
        frame = attached_frame(segment, meta)
    else:
        _, frame, raw, resolved, origin, chunk_range, name = task
    tree = ReTraTree.build_shard(
        frame, raw, resolved, origin, chunk_range, storage=None, name=name
    )
    return export_shard_tree(tree)


def build_sharded_tree(
    frame: MODFrame,
    raw_params: QuTParams,
    resolved: QuTParams,
    origin: float,
    plan: ShardPlan,
    *,
    storage: StorageManager | None,
    name: str,
    pool: WorkerPool | None = None,
    parallel: bool = True,
) -> "ShardedReTraTree":
    """Build every shard of ``plan`` and assemble the scatter-gather facade.

    Shards are built in worker processes on ``pool`` (the frame broadcast
    once over shared memory, with automatic pickle fallback) and imported
    into ``storage``; any pool or transport failure degrades to the serial
    in-process build, which is bit-identical by construction.  ``storage``
    is the dataset's storage manager (or ``None`` for a facade-private
    in-memory one); shard ``i``'s partitions are prefixed ``{name}_s{i}``.
    """
    shared = storage or StorageManager()
    names = [f"{name}_s{i}" for i in range(len(plan.ranges))]
    shards: list[ReTraTree] | None = None
    if parallel and len(plan.ranges) > 1:
        shards = _build_shards_pooled(frame, raw_params, resolved, origin, plan, names, shared, pool)
    if shards is None:
        shards = [
            ReTraTree.build_shard(
                frame, raw_params, resolved, origin, chunk_range,
                storage=shared, name=shard_name,
            )
            for chunk_range, shard_name in zip(plan.ranges, names)
        ]
    return ShardedReTraTree(shards, plan, storage=shared, name=name)


def _build_shards_pooled(
    frame: MODFrame,
    raw_params: QuTParams,
    resolved: QuTParams,
    origin: float,
    plan: ShardPlan,
    names: list[str],
    shared: StorageManager,
    pool: WorkerPool | None,
) -> list[ReTraTree] | None:
    """Worker-pool shard build; ``None`` when the pool or transport fails."""
    owned_pool = pool is None
    run_pool = pool if pool is not None else WorkerPool()
    with ShmArena() as arena:
        try:
            try:
                segment, meta = frame.to_shm(arena)
                tasks = [
                    ("shm", segment, meta, raw_params, resolved, origin, r, n)
                    for r, n in zip(plan.ranges, names)
                ]
            except ShmTransportError:
                tasks = [
                    ("pickle", frame, raw_params, resolved, origin, r, n)
                    for r, n in zip(plan.ranges, names)
                ]
            try:
                payloads = list(
                    run_pool.executor(len(tasks)).map(_build_shard_task, tasks)
                )
            except ShmTransportError:
                tasks = [
                    ("pickle", frame, raw_params, resolved, origin, r, n)
                    for r, n in zip(plan.ranges, names)
                ]
                payloads = list(
                    run_pool.executor(len(tasks)).map(_build_shard_task, tasks)
                )
            return [
                import_shard_tree(payload, shared, shard_name)
                for payload, shard_name in zip(payloads, names)
            ]
        except Exception:  # noqa: BLE001 - any pool failure degrades to serial
            run_pool.reset()
            return None
        finally:
            if owned_pool:
                run_pool.shutdown()


# -- the gather side -----------------------------------------------------------


class ShardedReTraTree:
    """Scatter-gather view over ``N`` shard-local ReTraTrees.

    Duck-types the exact surface :class:`~repro.qut.query.QuTClustering`
    consumes, so QuT runs unchanged: a window query broadcasts to every
    shard (``subchunks_overlapping``), and the overlapping sub-chunks are
    gathered **sorted by grid key** — global temporal order, the same order
    a single tree would return.  Because shard ownership windows are
    disjoint and every shard shares the single-tree grid, the merged list
    is bit-identical to the single tree's, which makes every downstream QuT
    step (restrict, merge, gamma filter, dense renumbering) identical too.

    All shard trees archive into one shared
    :class:`~repro.storage.catalog.StorageManager` (the dataset's, in
    durable mode), so member loads go straight to the shared heapfiles.
    """

    def __init__(
        self,
        shards: Sequence[ReTraTree],
        plan: ShardPlan,
        *,
        storage: StorageManager,
        name: str,
        recovered: bool = False,
    ) -> None:
        if not shards:
            raise ValueError("a sharded tree needs at least one shard")
        self.shards = list(shards)
        self.plan = plan
        self.storage = storage
        self.name = name
        self.recovered = recovered

    # -- identity (the engine's cache checks) ---------------------------------

    @property
    def params(self) -> QuTParams | None:
        """The resolved parameters every shard shares."""
        return self.shards[0].params

    @property
    def raw_params(self) -> QuTParams:
        """The pre-resolution parameters (the engine's request identity)."""
        return self.shards[0].raw_params

    @property
    def origin(self) -> float:
        """The shared grid origin (the whole dataset's ``tmin``)."""
        return self.shards[0].origin

    @property
    def shards_count(self) -> int:
        """The *requested* shard count (``engine.retratree(shards=N)``)."""
        return self.plan.count

    @property
    def num_clusters(self) -> int:
        """Total level-3 cluster entries across all shards."""
        return sum(shard.num_clusters for shard in self.shards)

    # -- the QuT surface ------------------------------------------------------

    def subchunks(self) -> list[SubChunk]:
        """All materialised sub-chunks across shards, in global temporal order."""
        merged = [sc for shard in self.shards for sc in shard.subchunks()]
        return sorted(merged, key=lambda sc: sc.key)

    def subchunks_overlapping(self, period) -> list[SubChunk]:
        """Scatter ``period`` to every shard, gather in global temporal order."""
        merged = [
            sc for shard in self.shards for sc in shard.subchunks_overlapping(period)
        ]
        return sorted(merged, key=lambda sc: sc.key)

    def _load_partition(self, partition_name: str):
        info = self.storage.get(partition_name)
        return [_record_to_subtrajectory(raw) for _rid, raw in info.heapfile.scan_records()]

    def load_members(self, entry: ClusterEntry) -> list:
        """Load a cluster entry's archived members (shared storage)."""
        return self._load_partition(entry.partition_name)

    def load_unclustered(self, subchunk: SubChunk) -> list:
        """Load a sub-chunk's unclustered sub-trajectories (shared storage)."""
        return self._load_partition(subchunk.unclustered_partition)

    # -- incremental maintenance ----------------------------------------------

    def append(self, trajectories: Sequence[Trajectory], frame: MODFrame | None = None) -> dict[str, int]:
        """Absorb a batch of new trajectories, routing pieces to their shards.

        Every shard runs its normal
        :meth:`~repro.qut.retratree.ReTraTree.append` over the *whole*
        batch; the ``chunk_range`` gates make the work disjoint, so the
        union of what the shards absorb equals what a single tree would.
        Counters are summed across shards (``trajectories`` reported once).
        """
        trajs = list(trajectories)
        totals = {
            "trajectories": 0,
            "pieces": 0,
            "assigned": 0,
            "unclustered": 0,
            "subchunks_touched": 0,
            "subchunks_new": 0,
            "s2t_runs": 0,
        }
        if not trajs:
            return totals
        if frame is None:
            frame = MODFrame.from_trajectories(trajs)
        for shard in self.shards:
            counters = shard.append(trajs, frame=frame)
            for key, value in counters.items():
                totals[key] += value
        totals["trajectories"] = len(trajs)
        return totals


def tree_layout(tree: "ReTraTree | ShardedReTraTree") -> tuple[list[ReTraTree], dict | None]:
    """``(trees, shards header)`` — how the durable catalog persists ``tree``.

    The arguments :meth:`repro.storage.durable.DurableCatalog.commit_tree`
    and ``commit_append`` take: a single tree is ``([tree], None)``; a
    sharded one is its shard trees plus the ``shards`` section header (the
    plan and the grid and parameters every shard shares), so recovery can
    check identity without opening any heapfile.
    """
    if not isinstance(tree, ShardedReTraTree):
        return [tree], None
    return tree.shards, {
        "count": tree.plan.count,
        "plan": tree.plan.to_manifest(),
        "origin": tree.origin,
        "params": tree.params.to_dict() if tree.params is not None else None,
        "raw_params": tree.raw_params.to_dict(),
    }
