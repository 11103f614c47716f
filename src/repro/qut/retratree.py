"""The ReTraTree (Representative Trajectory Tree).

The structure follows the paper's description (Section II.B and Fig. 2):

* **Level 1 / 2 — temporal**: the time axis is divided into chunks of length
  ``tau`` and sub-chunks of length ``delta``.  Incoming trajectories are cut
  at sub-chunk boundaries.
* **Level 3 — cluster entries**: each sub-chunk keeps an in-memory list of
  :class:`ClusterEntry` objects, one per discovered cluster: the
  representative sub-trajectory, the name of the disk partition archiving the
  members, a member count and the members' bounding box.
* **Level 4 — storage**: members are archived in heap-file partitions
  (:mod:`repro.storage`), each with a pg3D-Rtree mapping member bounding
  boxes to record ids.  Sub-trajectories that fit no representative go to
  the sub-chunk's *unclustered* partition.

When an unclustered partition exceeds ``overflow_threshold``, S2T-Clustering
is run on its content: newly found representatives are back-propagated into
the in-memory level-3 entry list, their members are archived into fresh
partitions, and the remaining outliers are re-inserted (they may be absorbed
by the new representatives) — exactly the dataflow of the paper's Figure 2.

Derived state
-------------
What a query needs from the *index* (levels 1–3) that does not depend on its
window is a property of the tree: computed on first use, kept, and dropped by
the mutation that changes it.  Nothing is precomputed at build or reopen
time, so neither pays for state no query asks for.

* *representative frame* per sub-chunk (``_rep_frame``) — keyed on the
  sub-chunk's ``entries_version``;
* *merge adjacency* per pair of sub-chunks (:meth:`ReTraTree.merge_adjacency`)
  — keyed on both ``entries_version`` values;
* *pg3D-Rtree* per partition (:meth:`ReTraTree.partition_rtree`) — dropped
  by ``_archive`` into, or a drop of, that partition name (which covers the
  drop-and-recreate in :meth:`ReTraTree.flush_unclustered`).

Version-keyed slots are *replaced* on mismatch, never accumulated, so the
state is bounded by the number of cluster entries.  Level 4 stays on disk:
member records are read through the buffer pool and decoded per query
(:meth:`ReTraTree.load_members`) — each partition as one batch into one
checked frame, the members being views of it
(:func:`~repro.storage.records.decode_records`) — so the tree's memory does
not grow with the archived data.  The pg3D-Rtree is lazy because QuT reads whole
partitions — only :meth:`~ReTraTree.load_members_in` probes it — while
maintaining it eagerly cost a pure-Python R-tree insert on every archived
record and a full rebuild of every partition's tree on reopen.
:class:`ReTraTreeStats` counts the read-path work (``partitions_decoded``,
``merge_pairs_evaluated``, ``rtrees_built``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from collections.abc import Iterator, Sequence

import numpy as np

from repro.hermes.distances import hausdorff_distance_batch, spatiotemporal_distance_batch
from repro.hermes.frame import MODFrame, subtrajectory_from_slice
from repro.hermes.mod import MOD
from repro.hermes.trajectory import SubTrajectory, Trajectory
from repro.hermes.types import BoxST, Period
from repro.index.rtree3d import RTree3D
from repro.qut.params import QuTParams
from repro.s2t.clustering import assign_to_representatives_batch
from repro.s2t.pipeline import S2TClustering
from repro.storage.catalog import StorageManager
from repro.storage.errors import CorruptPartitionError
from repro.storage.heapfile import RID
from repro.storage.records import decode_records, encode_record

__all__ = ["ClusterEntry", "SubChunk", "ReTraTree", "subtrajectory_from_slice"]


def _partition_path(storage: StorageManager, name: str):
    """The partition's on-disk file, or ``None`` for in-memory storage."""
    if storage.directory is None:
        return None
    return storage.directory / f"{name}.part"


def _bbox_faces_within(frame: MODFrame, traj: Trajectory, d: float) -> np.ndarray:
    """Per frame row: can its Hausdorff distance to ``traj`` be within ``d`` at all?

    ``H(A, B) <= d`` needs every face of ``A``'s bounding box within ``d`` of
    the matching face of ``B``'s (see
    :func:`~repro.hermes.distances.hausdorff_distance_batch`); rows failing
    that are rejected without computing the distance.  The bound carries a
    few ulps of slack so coordinate rounding can only let a row through,
    never reject one the exact test would accept.
    """
    xmin, xmax = float(traj.xs.min()), float(traj.xs.max())
    ymin, ymax = float(traj.ys.min()), float(traj.ys.max())
    gap = np.maximum(
        np.maximum(np.abs(frame.xmins - xmin), np.abs(frame.xmaxs - xmax)),
        np.maximum(np.abs(frame.ymins - ymin), np.abs(frame.ymaxs - ymax)),
    )
    return gap <= d + 4.0 * np.spacing(gap + d)


@dataclass
class ClusterEntry:
    """Level-3 entry: a representative and the partition archiving its members."""

    cluster_id: int
    representative: SubTrajectory
    partition_name: str
    member_count: int = 0
    bbox: BoxST | None = None

    def expand_bbox(self, box: BoxST) -> None:
        """Grow the entry's bounding box to cover a newly archived member."""
        self.bbox = box if self.bbox is None else self.bbox.union(box)


@dataclass
class SubChunk:
    """Level-2 node: a ``delta``-long time slice with its cluster entries."""

    chunk_idx: int
    sub_idx: int
    period: Period
    entries: list[ClusterEntry] = field(default_factory=list)
    unclustered_partition: str = ""
    unclustered_count: int = 0
    # Bumped by touch_entries() on ANY entry-list mutation (append, removal,
    # representative replacement); derived caches key on it, so replacing a
    # representative without changing the entry count still invalidates.
    entries_version: int = 0

    @property
    def key(self) -> tuple[int, int]:
        """``(chunk_idx, sub_idx)`` — the sub-chunk's grid coordinates."""
        return (self.chunk_idx, self.sub_idx)

    def touch_entries(self) -> None:
        """Record an entry mutation (invalidates the representative frame)."""
        self.entries_version += 1

    def absorb(self, sub: SubTrajectory, tree: "ReTraTree") -> bool:
        """Absorb one sub-trajectory piece into this sub-chunk.

        The piece is voted against the sub-chunk's level-3 representatives
        (one batched :func:`~repro.s2t.clustering.assign_to_representatives_batch`
        call over the cached representative frame): within the distance
        threshold it joins the closest entry's member partition; otherwise
        it lands in the *unclustered* (outlier) buffer, and an overflowing
        buffer triggers a localised re-clustering of this sub-chunk only
        (:meth:`ReTraTree.flush_unclustered`).  This is the single
        absorption step shared by the bulk load and the incremental append
        path (:meth:`ReTraTree.append`).

        Parameters
        ----------
        sub:
            The piece, already cut to (mostly) this sub-chunk's period.
        tree:
            The owning tree — provides storage, kernels and stats.

        Returns
        -------
        ``True`` when the piece was assigned to an existing cluster entry,
        ``False`` when it was buffered as unclustered.
        """
        params = tree.params
        assert params is not None and params.overflow_threshold is not None
        entry = tree._best_entry(self, sub)
        if entry is not None:
            tree._archive_member(entry, sub)
            tree.stats.pieces_assigned += 1
            return True
        tree._archive(self.unclustered_partition, sub)
        self.unclustered_count += 1
        tree.stats.pieces_unclustered += 1
        if self.unclustered_count >= params.overflow_threshold:
            tree.flush_unclustered(self)
        return False


@dataclass
class ReTraTreeStats:
    """Counters describing the incremental maintenance work performed."""

    trajectories_inserted: int = 0
    pieces_inserted: int = 0
    pieces_assigned: int = 0
    pieces_unclustered: int = 0
    s2t_runs: int = 0
    outliers_reinserted: int = 0
    maintenance_seconds: float = 0.0
    # Read-path work (see the module docstring's "Derived state"): partition
    # scans that decoded every record, and fills of the two lazy structures —
    # a query that re-touches a sub-chunk pair moves only the first.
    partitions_decoded: int = 0
    merge_pairs_evaluated: int = 0
    rtrees_built: int = 0


class ReTraTree:
    """Incrementally maintained index for time-aware sub-trajectory clustering."""

    # Class-level counter of bulk loads (:meth:`build` / :meth:`bulk_load`;
    # a fanned-out load counts once in the parent).  The restart recovery
    # tests assert through it (together with a fresh tree's zeroed ``stats``)
    # that reopening a persisted tree never re-runs the bulk load.
    build_calls: int = 0

    def __init__(
        self,
        params: QuTParams | None = None,
        storage: StorageManager | None = None,
        origin: float = 0.0,
        name: str = "retratree",
        chunk_range: tuple[int | None, int | None] | None = None,
    ) -> None:
        self.name = name
        self._raw_params = params or QuTParams()
        self.params: QuTParams | None = None  # resolved lazily on first insert
        self.storage = storage or StorageManager()
        self.origin = origin
        # Half-open level-1 chunk ownership window ``[lo, hi)`` (``None``
        # bounds are open).  A fanned-out bulk load (:mod:`repro.core.shard`)
        # gives each worker's tree a disjoint window over a *shared* grid:
        # the sub-chunk walk skips what lies outside the window, so a worker
        # inserts exactly the pieces the whole load would place in its
        # chunks.  ``None`` (the default) owns every chunk.
        self.chunk_range = chunk_range
        self._subchunks: dict[tuple[int, int], SubChunk] = {}
        # Columnar snapshot of each sub-chunk's representatives, keyed by the
        # sub-chunk's entries_version at build time: any entry mutation
        # (append or representative replacement) bumps the version and
        # invalidates the cached frame.
        self._entry_frames: dict[tuple[int, int], tuple[int, MODFrame]] = {}
        # Merge adjacency of a sub-chunk pair, keyed the same way on both
        # entries_versions; one slot per pair, replaced on mismatch.
        self._merge_edges: dict[
            tuple[tuple[int, int], tuple[int, int]], tuple[tuple[int, int], np.ndarray]
        ] = {}
        # Per partition name: the pg3D-Rtree over its records, built on first
        # use and dropped by _touch_partition.
        self._rtrees: dict[str, RTree3D[RID]] = {}
        self._next_cluster_id = 0
        self.stats = ReTraTreeStats()
        # True when this instance was reopened from a manifest instead of
        # being bulk-loaded; surfaced through QuT result extras.
        self.recovered = False

    # -- parameter / layout helpers ------------------------------------------------

    @property
    def raw_params(self) -> QuTParams:
        """The parameters the tree was constructed with, before resolution.

        This is the identity the engine compares when deciding whether a
        cached or persisted tree satisfies an explicit ``params`` request.
        """
        return self._raw_params

    def _ensure_params(self, mod_or_traj: MOD | Trajectory) -> QuTParams:
        if self.params is None:
            if isinstance(mod_or_traj, MOD):
                self.params = self._raw_params.resolved(mod_or_traj)
            else:
                probe = MOD(name="probe", trajectories=[mod_or_traj])
                self.params = self._raw_params.resolved(probe)
        return self.params

    def _locate(self, t: float) -> tuple[int, int]:
        """Chunk and sub-chunk indices of instant ``t``."""
        assert self.params is not None
        tau = self.params.tau
        delta = self.params.delta
        assert tau is not None and delta is not None
        offset = t - self.origin
        chunk_idx = int(math.floor(offset / tau))
        within = offset - chunk_idx * tau
        sub_idx = min(int(math.floor(within / delta)), max(int(round(tau / delta)) - 1, 0))
        return chunk_idx, sub_idx

    def _owns_chunk(self, chunk_idx: int) -> bool:
        """Whether this tree's :attr:`chunk_range` covers level-1 ``chunk_idx``."""
        if self.chunk_range is None:
            return True
        lo, hi = self.chunk_range
        if lo is not None and chunk_idx < lo:
            return False
        if hi is not None and chunk_idx >= hi:
            return False
        return True

    def _subchunk_period(self, chunk_idx: int, sub_idx: int) -> Period:
        assert self.params is not None
        tau, delta = self.params.tau, self.params.delta
        assert tau is not None and delta is not None
        start = self.origin + chunk_idx * tau + sub_idx * delta
        return Period(start, start + delta)

    def _get_subchunk(self, chunk_idx: int, sub_idx: int) -> SubChunk:
        key = (chunk_idx, sub_idx)
        if key not in self._subchunks:
            partition = f"{self.name}_unclustered_{chunk_idx}_{sub_idx}"
            self.storage.get_or_create(partition)
            self._subchunks[key] = SubChunk(
                chunk_idx=chunk_idx,
                sub_idx=sub_idx,
                period=self._subchunk_period(chunk_idx, sub_idx),
                unclustered_partition=partition,
            )
        return self._subchunks[key]

    # -- public structure accessors ---------------------------------------------------

    def subchunks(self) -> list[SubChunk]:
        """All materialised sub-chunks in temporal order."""
        return [self._subchunks[k] for k in sorted(self._subchunks)]

    def subchunks_overlapping(self, period: Period) -> list[SubChunk]:
        """Sub-chunks whose period overlaps ``period`` (levels 1–2 lookup)."""
        return [sc for sc in self.subchunks() if sc.period.overlaps(period)]

    @property
    def num_clusters(self) -> int:
        """Total level-3 cluster entries across sub-chunks."""
        return sum(len(sc.entries) for sc in self._subchunks.values())

    def partition_rtree(self, partition_name: str) -> RTree3D[RID]:
        """The pg3D-Rtree of a partition, built from one scan on first use.

        The partition is decoded as one batch and the boxes come from the
        decoded frame's per-row tables.
        """
        rtree = self._rtrees.get(partition_name)
        if rtree is None:
            rtree = RTree3D(max_entries=16)
            scanned = list(self.storage.get(partition_name).heapfile.scan_records())
            frame = decode_records([raw for _rid, raw in scanned]).frame
            for row, (rid, _raw) in enumerate(scanned):
                rtree.insert(frame.bbox_of(row), rid)
            self._rtrees[partition_name] = rtree
            self.stats.rtrees_built += 1
        return rtree

    # -- record archival -----------------------------------------------------------------

    def _touch_partition(self, partition_name: str) -> None:
        """Forget what was derived from a partition whose records are about to change."""
        self._rtrees.pop(partition_name, None)

    def _drop_partition(self, partition_name: str) -> None:
        self._touch_partition(partition_name)
        self.storage.drop_partition(partition_name)

    def _archive(self, partition_name: str, sub: SubTrajectory) -> RID:
        self._touch_partition(partition_name)
        info = self.storage.get_or_create(partition_name)
        rid = info.heapfile.insert(encode_record(sub))
        info.record_count += 1
        return rid

    def _open_entry(self, subchunk: SubChunk, representative: SubTrajectory) -> ClusterEntry:
        """A fresh level-3 entry under the next cluster id, its member partition empty.

        The caller lists it in ``subchunk.entries`` once it has members.
        """
        entry = ClusterEntry(
            cluster_id=self._next_cluster_id,
            representative=representative,
            partition_name=(
                f"{self.name}_part_{subchunk.chunk_idx}_{subchunk.sub_idx}_"
                f"{self._next_cluster_id}"
            ),
        )
        self._next_cluster_id += 1
        self.storage.get_or_create(entry.partition_name)
        return entry

    def _archive_member(self, entry: ClusterEntry, sub: SubTrajectory) -> None:
        """Archive ``sub`` into ``entry``'s partition and grow its count and bbox."""
        self._archive(entry.partition_name, sub)
        entry.member_count += 1
        entry.expand_bbox(sub.bbox)

    def _load_partition(self, partition_name: str) -> list[SubTrajectory]:
        """A partition's records, decoded as one batch into views of one frame."""
        info = self.storage.get(partition_name)
        self.stats.partitions_decoded += 1
        raws = [raw for _rid, raw in info.heapfile.scan_records()]
        return decode_records(raws).subtrajectories()

    def load_members(self, entry: ClusterEntry) -> list[SubTrajectory]:
        """Load a cluster entry's archived members from its partition."""
        return self._load_partition(entry.partition_name)

    def load_unclustered(self, subchunk: SubChunk) -> list[SubTrajectory]:
        """Load a sub-chunk's unclustered sub-trajectories."""
        return self._load_partition(subchunk.unclustered_partition)

    def load_members_in(self, entry: ClusterEntry, box: BoxST) -> list[SubTrajectory]:
        """Load only the members whose bounding boxes intersect ``box``.

        Uses the partition's pg3D-Rtree, so only the qualifying records are
        fetched from the heap file — the index-based access path of the paper.
        """
        info = self.storage.get(entry.partition_name)
        rids = self.partition_rtree(entry.partition_name).range_search(box)
        return decode_records([info.heapfile.get(rid) for rid in rids]).subtrajectories()

    # -- insertion ----------------------------------------------------------------------

    def _owned_subchunks(self, traj: Trajectory) -> Iterator[tuple[int, int]]:
        """Keys of the owned sub-chunks ``traj``'s lifespan crosses, in time order.

        The one sub-chunk cursor walk: from the sub-chunk holding the
        trajectory's first instant, hop just past each sub-chunk's end until
        the one holding its last instant.  Sub-chunks outside this tree's
        :attr:`chunk_range` are skipped.
        """
        params = self._ensure_params(traj)
        assert params.delta is not None
        end_chunk = self._locate(traj.period.tmax)
        cursor = traj.period.tmin
        seen: set[tuple[int, int]] = set()
        while True:
            key = self._locate(cursor)
            if key not in seen:
                seen.add(key)
                if self._owns_chunk(key[0]):
                    yield key
            if key == end_chunk or cursor >= traj.period.tmax:
                break
            cursor = self._subchunk_period(*key).tmax + params.delta * 1e-9

    def insert_trajectory(self, traj: Trajectory) -> set[tuple[int, int]]:
        """Insert a whole trajectory: cut at sub-chunk boundaries and insert each piece.

        Returns the keys of the sub-chunks that received a piece.
        """
        self.stats.trajectories_inserted += 1
        touched: set[tuple[int, int]] = set()
        for key in self._owned_subchunks(traj):
            piece = traj.slice_period(self._subchunk_period(*key))
            if piece is not None:
                touched.add(
                    self.insert_subtrajectory(subtrajectory_from_slice(traj, piece))
                )
        return touched

    def insert_subtrajectory(self, sub: SubTrajectory) -> tuple[int, int]:
        """Insert one sub-trajectory piece lying (mostly) within one sub-chunk.

        Locates the owning sub-chunk by the piece's temporal midpoint and
        delegates the assign-or-buffer step to :meth:`SubChunk.absorb`.
        Returns the sub-chunk's key, so batch callers (:meth:`append`) can
        track which sub-chunks a batch touched.
        """
        self._ensure_params(sub.traj)
        t_mid = (sub.period.tmin + sub.period.tmax) / 2.0
        subchunk = self._get_subchunk(*self._locate(t_mid))
        self.stats.pieces_inserted += 1
        subchunk.absorb(sub, self)
        return subchunk.key

    def _rep_frame(self, subchunk: SubChunk) -> MODFrame:
        """Columnar snapshot of the sub-chunk's representatives (cached).

        Keyed on ``subchunk.entries_version``, not the entry count: swapping
        a representative in place leaves the count unchanged but must still
        rebuild the frame.
        """
        cached = self._entry_frames.get(subchunk.key)
        if cached is not None and cached[0] == subchunk.entries_version:
            return cached[1]
        frame = MODFrame.from_trajectories(
            entry.representative.traj for entry in subchunk.entries
        )
        self._entry_frames[subchunk.key] = (subchunk.entries_version, frame)
        return frame

    def replace_representative(
        self, subchunk: SubChunk, entry_index: int, representative: SubTrajectory
    ) -> None:
        """Swap the representative of a level-3 entry.

        Goes through here (rather than mutating the entry directly) so the
        sub-chunk's entries version — and with it the cached representative
        frame — is invalidated.
        """
        subchunk.entries[entry_index].representative = representative
        subchunk.touch_entries()

    def _best_entry(self, subchunk: SubChunk, sub: SubTrajectory) -> ClusterEntry | None:
        """The closest representative within the distance threshold, or ``None``.

        Distances to every representative are computed in one
        :func:`~repro.s2t.clustering.assign_to_representatives_batch` call
        over the sub-chunk's cached representative frame.
        """
        params = self.params
        assert params is not None and params.distance_threshold is not None
        if not subchunk.entries:
            return None
        idx, _dist = assign_to_representatives_batch(
            sub,
            self._rep_frame(subchunk),
            eps=params.distance_threshold,
            temporal_tolerance=params.temporal_tolerance,
            max_samples=32,
        )
        return None if idx is None else subchunk.entries[idx]

    def merge_adjacency(self, earlier: SubChunk, later: SubChunk) -> np.ndarray:
        """Which cluster entries of two sub-chunks continue each other (cached).

        A boolean ``(len(earlier.entries), len(later.entries))`` matrix:
        cell ``[i, j]`` is true when the two entries' representatives
        co-move (time-aware distance over 32 common instants within the
        distance threshold) *or* trace the same spatial path (Hausdorff
        distance within it).  That depends on the stored representatives
        only — never on a query window — so it is computed once per pair
        with the batched kernels over :meth:`_rep_frame` and kept until
        either sub-chunk's ``entries_version`` moves.
        """
        params = self.params
        assert params is not None and params.distance_threshold is not None
        threshold = params.distance_threshold
        key = (earlier.key, later.key)
        versions = (earlier.entries_version, later.entries_version)
        cached = self._merge_edges.get(key)
        if cached is not None and cached[0] == versions:
            return cached[1]
        frame = self._rep_frame(earlier)
        edges = np.zeros((len(earlier.entries), len(later.entries)), dtype=np.bool_)
        for j, entry in enumerate(later.entries):
            rep = entry.representative.traj
            linked = spatiotemporal_distance_batch(frame, rep, max_samples=32) <= threshold
            if np.any(~linked & _bbox_faces_within(frame, rep, threshold)):
                linked |= hausdorff_distance_batch(frame, rep) <= threshold
            edges[:, j] = linked
        self._merge_edges[key] = (versions, edges)
        self.stats.merge_pairs_evaluated += edges.size
        return edges

    # -- maintenance (S2T on overflowing partitions) -----------------------------------------

    def flush_unclustered(self, subchunk: SubChunk) -> None:
        """Run S2T-Clustering on a sub-chunk's unclustered partition.

        New representatives are added to the sub-chunk's entry list, their
        members archived to fresh partitions, and the remaining outliers are
        re-inserted against the updated entry list; whatever still fits no
        representative stays in a rebuilt unclustered partition.
        """
        start = time.perf_counter()
        params = self.params
        assert params is not None
        pending = self.load_unclustered(subchunk)
        if not pending:
            return
        self.stats.s2t_runs += 1

        # Run S2T on the pending pieces (as standalone trajectories).
        mod = MOD(name=f"{self.name}_pending_{subchunk.chunk_idx}_{subchunk.sub_idx}")
        key_map: dict[tuple[str, str], SubTrajectory] = {}
        for sub in pending:
            if sub.traj.key in key_map:
                continue
            key_map[sub.traj.key] = sub
            mod.add(sub.traj)
        result = S2TClustering(params.s2t).fit(mod)

        # Back-propagate the new representatives into the in-memory level 3.
        # S2T may split one pending piece into several sub-trajectories; each
        # original piece is archived exactly once, in the first cluster one of
        # its sub-trajectories lands in.
        archived: set[tuple[str, str]] = set()
        for cluster in result.clusters:
            rep_parent = key_map[cluster.representative.parent_key]
            entry = self._open_entry(subchunk, rep_parent)
            for member in cluster.members:
                original = key_map[member.parent_key]
                if original.traj.key in archived:
                    continue
                archived.add(original.traj.key)
                self._archive_member(entry, original)
            if entry.member_count > 0:
                subchunk.entries.append(entry)
                subchunk.touch_entries()
            else:
                self._drop_partition(entry.partition_name)

        # Re-insert the outliers: they may now fit one of the new representatives.
        leftovers: list[SubTrajectory] = []
        for outlier in result.outliers:
            original = key_map.get(outlier.parent_key)
            if original is None or original.traj.key in archived:
                continue
            archived.add(original.traj.key)
            entry = self._best_entry(subchunk, original)
            if entry is not None:
                self._archive_member(entry, original)
                self.stats.outliers_reinserted += 1
            else:
                leftovers.append(original)

        # Rebuild the unclustered partition with only the leftovers.
        old_partition = subchunk.unclustered_partition
        self._drop_partition(old_partition)
        self.storage.get_or_create(old_partition)
        for sub in leftovers:
            self._archive(old_partition, sub)
        subchunk.unclustered_count = len(leftovers)
        self.stats.maintenance_seconds += time.perf_counter() - start

    def _flush_threshold(self) -> int:
        """Minimum unclustered-buffer size worth an S2T re-clustering run."""
        return max(2, self.params.gamma if self.params else 2)

    def finalize(self) -> None:
        """Flush every sub-chunk's unclustered partition (end of bulk load)."""
        for subchunk in self.subchunks():
            if subchunk.unclustered_count >= self._flush_threshold():
                self.flush_unclustered(subchunk)

    # -- incremental maintenance (the append path) ------------------------------------------

    def append(
        self,
        trajectories: Sequence[Trajectory],
        frame: MODFrame | None = None,
    ) -> dict[str, int]:
        """Absorb a batch of newly arrived trajectories without rebuilding.

        This is the paper's incremental-maintenance claim made concrete:
        each trajectory is cut at the existing temporal grid, every piece is
        voted against the touched sub-chunk's representatives
        (:meth:`SubChunk.absorb`, reusing the batched S2T kernels), pieces
        in time ranges the tree has never seen open fresh sub-chunks (which
        extends the grid in either direction — leading chunks get negative
        chunk indices), and after the batch only the *touched* sub-chunks
        whose outlier buffers grew past the flush threshold are re-clustered
        locally.  :attr:`build_calls` is untouched — no bulk load runs.

        Parameters
        ----------
        trajectories:
            The new trajectories, in arrival order.
        frame:
            Optional columnar snapshot of exactly ``trajectories`` (the
            ingestion pipeline's delta frame); built here when omitted.
            Pieces are derived by slicing it per sub-chunk, the same
            partition-frame path the bulk load uses.

        Returns
        -------
        A counter dict: ``trajectories`` / ``pieces`` absorbed, ``assigned``
        vs ``unclustered`` pieces, ``subchunks_touched``, ``subchunks_new``
        and ``s2t_runs`` (localised re-clusterings triggered).

        A tree with no resolved parameters yet (built over an empty MOD)
        adopts the first non-empty batch as its parameter probe and grid
        origin, exactly as a bulk load over that batch would.
        """
        trajs = list(trajectories)
        counters = {
            "trajectories": 0,
            "pieces": 0,
            "assigned": 0,
            "unclustered": 0,
            "subchunks_touched": 0,
            "subchunks_new": 0,
            "s2t_runs": 0,
        }
        if not trajs:
            return counters
        if self.params is None:
            self.origin = min(float(t.period.tmin) for t in trajs)
            probe = MOD(name=f"{self.name}_append_probe", trajectories=trajs)
            self.params = self._raw_params.resolved(probe)
        pieces0 = self.stats.pieces_inserted
        assigned0 = self.stats.pieces_assigned
        unclustered0 = self.stats.pieces_unclustered
        s2t0 = self.stats.s2t_runs
        subchunks0 = len(self._subchunks)
        if frame is None:
            frame = MODFrame.from_trajectories(trajs)
        partition_frames: dict[tuple[int, int], MODFrame] = {}
        touched: set[tuple[int, int]] = set()
        for traj in trajs:
            touched |= self._bulk_insert_from_frame(traj, partition_frames, frame)
        # Localised finalize: only sub-chunks this batch touched are
        # candidates for an S2T re-clustering of their outlier buffers.
        for key in sorted(touched):
            subchunk = self._subchunks[key]
            if subchunk.unclustered_count >= self._flush_threshold():
                self.flush_unclustered(subchunk)
        counters.update(
            trajectories=len(trajs),
            pieces=self.stats.pieces_inserted - pieces0,
            assigned=self.stats.pieces_assigned - assigned0,
            unclustered=self.stats.pieces_unclustered - unclustered0,
            subchunks_touched=len(touched),
            subchunks_new=len(self._subchunks) - subchunks0,
            s2t_runs=self.stats.s2t_runs - s2t0,
        )
        return counters

    # -- persistence -----------------------------------------------------------------------------

    @property
    def _reps_partition(self) -> str:
        """Default partition archiving one record per level-3 representative."""
        return f"{self.name}__reps"

    def to_manifest(self, reps_partition: str | None = None) -> dict:
        """Serialise the tree structure for the storage-catalog manifest.

        The member partitions already live in the heapfiles; what the
        manifest adds is everything that existed only in memory: the
        sub-chunk grid (indices and periods), the level-3 cluster entries
        (ids, partition names, member counts, bounding boxes) and a
        *representative reference* per entry — the RID of the
        representative's record in the representatives partition, which is
        written by this call.  ``reps_partition`` names that partition
        (default ``<name>__reps``); the engine passes a **fresh,
        generation-suffixed name** on re-persists so the partition a
        committed manifest references is never rewritten in place — a crash
        before the next manifest commit must leave the old manifest's RIDs
        resolving against untouched records.  ``from_manifest`` inverts the
        whole thing.
        """
        if self.params is None:
            raise ValueError("cannot persist an empty ReTraTree (no resolved params)")
        reps_partition = reps_partition or self._reps_partition
        if self.storage.has(reps_partition):
            self.storage.drop_partition(reps_partition)
        reps = self.storage.create_partition(reps_partition)

        subchunks = []
        for sc in self.subchunks():
            entries = []
            for entry in sc.entries:
                rid = reps.heapfile.insert(encode_record(entry.representative))
                reps.record_count += 1
                entries.append(
                    {
                        "cluster_id": entry.cluster_id,
                        "partition": entry.partition_name,
                        "member_count": entry.member_count,
                        "bbox": list(entry.bbox.as_tuple()) if entry.bbox is not None else None,
                        "representative_rid": [rid.page_no, rid.slot],
                    }
                )
            subchunks.append(
                {
                    "chunk_idx": sc.chunk_idx,
                    "sub_idx": sc.sub_idx,
                    "period": [sc.period.tmin, sc.period.tmax],
                    "unclustered_partition": sc.unclustered_partition,
                    "unclustered_count": sc.unclustered_count,
                    "entries": entries,
                }
            )
        return {
            "name": self.name,
            "origin": self.origin,
            "next_cluster_id": self._next_cluster_id,
            "params": self.params.to_dict(),
            "raw_params": self._raw_params.to_dict(),
            "chunk_range": list(self.chunk_range) if self.chunk_range else None,
            "reps_partition": reps_partition,
            "reps_count": reps.record_count,
            "subchunks": subchunks,
        }

    def _reopen_partition(self, partition_name: str, role: str, recorded: int) -> int:
        """Open an existing partition and check its record count against the manifest.

        *Read*: the slot directories and chunk headers of the partition's
        pages (:meth:`~repro.storage.heapfile.HeapFile.count_records`) — no
        record is decoded.  *Checked*: opening verifies every page against
        the manifest's CRCs (``StorageManager.get_or_create``), and the
        heapfile's record count must equal ``recorded``, the count the
        manifest holds for this ``role`` ("member", "unclustered",
        "representatives") partition.  The heapfile decides whether the two
        describe the same tree state: records inserted after the last
        persist (and flushed by buffer-pool eviction) are counted, records
        that never reached disk are not, and either way the mismatch raises
        :class:`~repro.storage.errors.CorruptPartitionError`.
        ``PartitionInfo.record_count`` is caller tracked, so reopening
        restores it.  Returns the count.
        """
        info = self.storage.get_or_create(partition_name)
        info.record_count = info.heapfile.count_records()
        if info.record_count != int(recorded):
            raise CorruptPartitionError(
                f"{role} partition {partition_name!r} holds {info.record_count} "
                f"records but the manifest recorded {recorded}; the tree state "
                "is torn",
                path=_partition_path(self.storage, partition_name),
            )
        return info.record_count

    @classmethod
    def from_manifest(cls, manifest: dict, storage: StorageManager) -> "ReTraTree":
        """Reopen a persisted tree: the inverse of :meth:`to_manifest`.

        ``storage`` must be the manager over the directory the tree was
        persisted into (its heapfiles hold the member and representative
        records).  No S2T work runs here and the only records decoded are
        the representatives — one record per level-3 entry, in one batch
        (:func:`~repro.storage.records.decode_records`); member and
        unclustered records are decoded by the first query that loads them,
        exactly as on a tree that was never closed.

        Every partition the section names is opened eagerly
        (:meth:`_reopen_partition`), so page-CRC damage and a record count
        that disagrees with the manifest surface here, as
        :class:`~repro.storage.errors.CorruptPartitionError` — a
        :class:`ValueError` — and the engine degrades to a rebuild instead
        of recovering a tree referencing phantom trajectories.  The typical
        cause of a count mismatch is a crash in the middle of an append
        whose buffered member records were partly flushed by buffer-pool
        eviction before the manifest commit; every mutation path (bulk
        build, rebuild, :meth:`append` through the ingestion pipeline)
        re-persists the manifest, so a committed state always passes.

        Each entry's ``member_count`` and ``bbox``, and each sub-chunk's
        ``unclustered_count``, are then *trusted* as the manifest states
        them: the section sits under the manifest's ``manifest_crc``, a
        member partition only ever grows between persists, and JSON
        round-trips a float exactly — so an equal count means the same
        records and therefore the same box.  What is no longer noticed here
        is a record whose page passes its CRC yet does not decode; it fails
        in the first query that loads it.
        """
        chunk_range = manifest.get("chunk_range")
        tree = cls(
            params=QuTParams.from_dict(manifest["raw_params"]),
            storage=storage,
            origin=float(manifest["origin"]),
            name=manifest["name"],
            chunk_range=tuple(chunk_range) if chunk_range else None,
        )
        tree.params = QuTParams.from_dict(manifest["params"])
        tree._next_cluster_id = int(manifest["next_cluster_id"])
        reps_name = manifest.get("reps_partition") or tree._reps_partition
        expected_reps = manifest.get("reps_count")
        if expected_reps is not None:
            tree._reopen_partition(reps_name, "representatives", expected_reps)
        reps = storage.get_or_create(reps_name)
        representatives = iter(
            decode_records(
                [
                    reps.heapfile.get(RID(*entry_data["representative_rid"]))
                    for sc_data in manifest["subchunks"]
                    for entry_data in sc_data["entries"]
                ]
            ).subtrajectories()
        )
        for sc_data in manifest["subchunks"]:
            key = (int(sc_data["chunk_idx"]), int(sc_data["sub_idx"]))
            subchunk = SubChunk(
                chunk_idx=key[0],
                sub_idx=key[1],
                period=Period(*sc_data["period"]),
                unclustered_partition=sc_data["unclustered_partition"],
            )
            subchunk.unclustered_count = tree._reopen_partition(
                subchunk.unclustered_partition, "unclustered", sc_data["unclustered_count"]
            )
            for entry_data in sc_data["entries"]:
                bbox = entry_data["bbox"]
                subchunk.entries.append(
                    ClusterEntry(
                        cluster_id=int(entry_data["cluster_id"]),
                        representative=next(representatives),
                        partition_name=entry_data["partition"],
                        member_count=tree._reopen_partition(
                            entry_data["partition"], "member", entry_data["member_count"]
                        ),
                        bbox=BoxST(*bbox) if bbox is not None else None,
                    )
                )
            subchunk.touch_entries()
            tree._subchunks[key] = subchunk
        tree.recovered = True
        return tree

    # -- bulk construction -----------------------------------------------------------------------

    def _bulk_insert_from_frame(
        self,
        traj: Trajectory,
        partition_frames: dict[tuple[int, int], MODFrame],
        parent_frame: MODFrame,
    ) -> set[tuple[int, int]]:
        """Frame-native :meth:`insert_trajectory` used by the bulk load and append.

        Walks the same sub-chunk cursor as :meth:`insert_trajectory`, but the
        per-sub-chunk piece comes from the sub-chunk's *partition frame* —
        ``parent_frame.slice_period(subchunk period)``, computed once for
        **all** trajectories in one batched pass — instead of a fresh
        ``traj.slice_period`` concatenation per (trajectory, sub-chunk) pair.
        The slicing algorithms are row-for-row identical, so the inserted
        pieces (and therefore the resulting tree) match the incremental path
        exactly.  Returns the keys of the sub-chunks that received a piece.
        """
        self.stats.trajectories_inserted += 1
        touched: set[tuple[int, int]] = set()
        for key in self._owned_subchunks(traj):
            partition = partition_frames.get(key)
            if partition is None:
                partition = parent_frame.slice_period(self._subchunk_period(*key))
                partition_frames[key] = partition
            row = partition.maybe_row_of(traj.key)
            if row is not None:
                piece = partition.trajectory_of(row)
                touched.add(
                    self.insert_subtrajectory(subtrajectory_from_slice(traj, piece))
                )
        return touched

    @classmethod
    def build(
        cls,
        mod: MOD,
        params: QuTParams | None = None,
        storage: StorageManager | None = None,
        name: str = "retratree",
        frame: MODFrame | None = None,
    ) -> "ReTraTree":
        """Build a ReTraTree over an existing MOD (bulk load + finalize).

        Resolves the grid — origin and parameters — over the whole MOD and
        runs :meth:`bulk_load` with no ``chunk_range``.  ``frame`` is the
        MOD's columnar snapshot (the engine passes its cached catalog
        entry); built here otherwise.
        """
        if len(mod) == 0:
            ReTraTree.build_calls += 1
            return cls(params=params, storage=storage, name=name)
        if frame is None:
            frame = MODFrame.from_mod(mod)
        raw = params or QuTParams()
        return cls.bulk_load(
            frame, raw, raw.resolved(mod), mod.period.tmin, storage=storage, name=name
        )

    @classmethod
    def bulk_load(
        cls,
        frame: MODFrame,
        params: QuTParams,
        resolved: QuTParams,
        origin: float,
        chunk_range: tuple[int | None, int | None] | None = None,
        storage: StorageManager | None = None,
        name: str = "retratree",
    ) -> "ReTraTree":
        """The one bulk load: walk a dataset frame's rows into a fresh tree.

        The grid — ``origin`` and ``resolved`` — comes from the *whole*
        dataset, never from ``chunk_range``'s slice of it.  Rows are walked
        in dataset order and each sub-chunk's pieces derive from *partition
        frames* sliced off ``frame`` (one batched pass per sub-chunk rather
        than a concatenation per piece).  ``chunk_range`` keeps only the
        pieces falling in that window of level-1 chunks: a fanned-out load
        (:mod:`repro.core.shard`) runs one of these per disjoint window, and
        because grid, parameters, partition frames and walk order are those
        of the unrestricted load, each window's sub-chunks are bit-identical
        to the corresponding sub-chunks of a whole load.
        """
        ReTraTree.build_calls += 1
        tree = cls(
            params=params,
            storage=storage,
            origin=origin,
            name=name,
            chunk_range=chunk_range,
        )
        tree.params = resolved
        partition_frames: dict[tuple[int, int], MODFrame] = {}
        for row in range(len(frame)):
            tree._bulk_insert_from_frame(frame.trajectory_of(row), partition_frames, frame)
        tree.finalize()
        return tree
