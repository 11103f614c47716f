"""Parallel ReTraTree bulk load: one tree, built by chunk window.

The paper has one index — the ReTraTree — and sharding is only a way to
*build* it faster.  The level-1 chunk axis makes the bulk load embarrassingly
parallel, the same way temporal partitions do for S2T
(:mod:`repro.core.parallel`):

* :class:`ShardPlan` splits the chunk axis (the ``tau``-grid) into ``N``
  contiguous, disjoint windows.  The grid itself — origin and resolved
  parameters — is computed **once over the whole MOD**, never per window, so
  every window agrees on where sub-chunk boundaries fall.
* :func:`build_sharded_tree` fans the windows out over the worker pool with
  the one scatter (:func:`repro.core.parallel.scatter`): the *whole* dataset
  frame is broadcast (free over shared memory), each worker runs the
  ordinary :meth:`~repro.qut.retratree.ReTraTree.bulk_load` with its window
  as the tree's ``chunk_range`` gate, and returns a compact record-level
  export (:func:`export_shard_tree`).
* The parent adopts every export into **one** plain
  :class:`~repro.qut.retratree.ReTraTree` (:func:`import_shard_tree`):
  disjoint windows mean disjoint sub-chunk keys, so adoption is a union.
  What comes back is an ordinary tree — queried, appended to, persisted and
  recovered like any other; nothing downstream knows how it was built.

Equivalence guarantee: the windows partition the chunk axis, every worker
shares the whole-load grid, and each walks the same rows through the same
partition-frame slices — so the adopted sub-chunks are *bit-identical* to
those of an unrestricted bulk load, for every ``N`` (pinned tree against
tree by ``tests/core/test_shard.py``).  Only cluster ids differ: they are
handed out in adoption order rather than flush order.  A pool that fails
degrades to that unrestricted load, in process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.parallel import WorkerPool, scatter, shipped_task
from repro.hermes.frame import MODFrame
from repro.qut.params import QuTParams
from repro.qut.retratree import ReTraTree
from repro.storage.catalog import StorageManager
from repro.storage.records import decode_records, encode_record

__all__ = [
    "ShardPlan",
    "build_sharded_tree",
    "export_shard_tree",
    "import_shard_tree",
]


@dataclass(frozen=True)
class ShardPlan:
    """Contiguous windows over the ReTraTree's level-1 chunk axis.

    ``ranges`` holds the windows: as many as the requested fan-out, fewer
    when the dataset spans fewer chunks than requested.  Windows are
    half-open ``[lo, hi)`` with the first ``lo`` and last ``hi`` left open
    (``None``), so together they cover the whole axis.
    """

    ranges: tuple[tuple[int | None, int | None], ...]

    @classmethod
    def for_layout(cls, duration: float, tau: float, count: int) -> "ShardPlan":
        """Plan ``count`` windows over a dataset spanning ``duration`` seconds.

        ``tau`` is the resolved level-1 chunk length; the chunk axis holds
        ``ceil(duration / tau)`` chunks, distributed over the windows as
        evenly as possible (earlier windows take the remainder).
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
        return cls(ranges=tuple(ranges))


# -- worker protocol -----------------------------------------------------------


def export_shard_tree(tree: ReTraTree) -> list[dict]:
    """Flatten a freshly loaded window's tree into a picklable record payload.

    Workers load their window over private in-memory storage; what crosses
    back to the parent is the *final* state only — per sub-chunk, the
    unclustered records and per entry the representative plus member records
    (raw encoded bytes, in heapfile scan order = insertion order).
    :func:`import_shard_tree` re-archives them in the same order, so the
    adopted sub-chunk is indistinguishable from one loaded in process.
    """
    subchunks = []
    for sc in tree.subchunks():
        entries = []
        for entry in sc.entries:
            info = tree.storage.get(entry.partition_name)
            entries.append(
                {
                    "representative": encode_record(entry.representative),
                    "members": [raw for _rid, raw in info.heapfile.scan_records()],
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
    return subchunks


def import_shard_tree(tree: ReTraTree, payload: list[dict]) -> None:
    """Adopt one window's :func:`export_shard_tree` output into ``tree``.

    Decodes each partition's records as one batch and archives every record
    through the tree's normal archive path, in export order, into
    ``tree.storage``.  Entries open under ``tree``'s own cluster-id counter,
    so ids stay unique across windows.
    """
    for sc_data in payload:
        subchunk = tree._get_subchunk(sc_data["chunk_idx"], sc_data["sub_idx"])
        for sub in decode_records(sc_data["unclustered"]).subtrajectories():
            tree._archive(subchunk.unclustered_partition, sub)
            subchunk.unclustered_count += 1
        entries = sc_data["entries"]
        representatives = decode_records(
            [entry_data["representative"] for entry_data in entries]
        ).subtrajectories()
        for entry_data, representative in zip(entries, representatives):
            entry = tree._open_entry(subchunk, representative)
            for sub in decode_records(entry_data["members"]).subtrajectories():
                tree._archive_member(entry, sub)
            subchunk.entries.append(entry)
        subchunk.touch_entries()


def _build_shard_task(task: tuple) -> list[dict]:
    """Worker entry point: bulk-load one chunk window and export it.

    The scatter's ``"shm"`` task attaches the broadcast dataset frame
    zero-copy; ``("pickle", frame, context, chunk_range)`` carries the whole
    frame by value.  Either way the load itself is identical.
    """
    if task[0] == "shm":
        frame, context, chunk_range = shipped_task(task)
    else:
        _, frame, context, chunk_range = task
    raw_params, resolved, origin = context
    return export_shard_tree(
        ReTraTree.bulk_load(frame, raw_params, resolved, origin, chunk_range)
    )


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
) -> ReTraTree:
    """Bulk-load a ReTraTree with one worker process per window of ``plan``.

    The windows are loaded on ``pool`` (the frame broadcast once over shared
    memory, by value when that is refused) and adopted into one tree over
    ``storage`` (the dataset's storage manager, or ``None`` for a private
    in-memory one).  A single window, or a pool that fails, is the plain
    unrestricted :meth:`~repro.qut.retratree.ReTraTree.bulk_load` in this
    process — bit-identical by construction.  Nothing is written to
    ``storage`` before every window has come back, so a degraded load
    starts from clean partitions; an error raised *by* a load or by the
    adoption propagates.
    """
    context = (raw_params, resolved, origin)
    payloads = None
    if len(plan.ranges) > 1:
        payloads, _info = scatter(
            _build_shard_task,
            frame,
            context,
            plan.ranges,
            lambda chunk_range: ("pickle", frame, context, chunk_range),
            workers=len(plan.ranges),
            pool=pool,
        )
    if payloads is None:
        return ReTraTree.bulk_load(frame, *context, storage=storage, name=name)
    ReTraTree.build_calls += 1  # one bulk load, fanned out
    tree = ReTraTree(params=raw_params, storage=storage, origin=origin, name=name)
    tree.params = resolved
    for payload in payloads:
        import_shard_tree(tree, payload)
    return tree
