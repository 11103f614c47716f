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
  (:mod:`repro.storage`).  Sub-trajectories that fit no representative go
  to the sub-chunk's *unclustered* partition.  A query reads a sub-chunk's
  partitions whole and together (:meth:`ReTraTree.load_subchunk`): one
  read, one frame — so, unlike the paper, no partition has a pg3D-Rtree
  (``docs/architecture.md``, "The ReTraTree").

When an unclustered partition exceeds ``overflow_threshold``, S2T-Clustering
is run on its content: newly found representatives are back-propagated into
the in-memory level-3 entry list, their members are archived into fresh
partitions, and the remaining outliers are re-inserted (they may be absorbed
by the new representatives) — exactly the dataflow of the paper's Figure 2.

Insertion
---------
There is one way in, :meth:`ReTraTree.append`; the bulk load
(:meth:`ReTraTree.build`) is an append into an empty tree.  An append cuts
its whole batch first and inserts the pieces through one loop
(:meth:`ReTraTree._insert_pieces`), absorbing them one by one in batch
order, then re-clusters the outlier buffers of the sub-chunks it touched.
A piece belongs to the sub-chunk holding its temporal midpoint.

* *Lookahead*: on a sub-chunk's first piece, every piece still queued for
  it is decided in one pass against the sub-chunk's representative frame
  (:meth:`ReTraTree._decide`).
* *Version rule*: a decision holds while the sub-chunk's
  ``entries_version`` does.  Absorbing a piece changes no representative;
  an overflow flush adds entries and bumps the version, so the remaining
  pieces are decided again.
* *Prune*: a (piece, representative) pair is computed only when their
  bounding boxes lie within the distance threshold ``d``.  The mean of the
  synchronous distances is at least the gap between the two boxes, and a
  pair beyond ``d`` is refused anyway; the test carries ulps of slack so it
  can only keep a pair, never drop one the unpruned pass would choose
  (:func:`_boxes_within`).  :meth:`ReTraTree.merge_adjacency` skips far
  pairs of representatives with the same test.

Derived state
-------------
What a query needs from the *index* (levels 1–3) that does not depend on its
window is a property of the tree: computed on first use, kept, and dropped by
the mutation that changes it.  Nothing is precomputed at build or reopen
time, so neither pays for state no query asks for.

* *representative frame* per sub-chunk (``_rep_frame``) — keyed on the
  sub-chunk's ``entries_version``;
* *merge adjacency* per pair of sub-chunks (:meth:`ReTraTree.merge_adjacency`)
  — keyed on both ``entries_version`` values.

Version-keyed slots are *replaced* on mismatch, never accumulated, so the
state is bounded by the number of cluster entries.  Level 4 stays on disk:
member records are read through the buffer pool and decoded per query —
QuT reads each touched sub-chunk's partitions (its entries' in entry
order, then the unclustered one) in one pass into one checked frame
(:meth:`ReTraTree.load_subchunk`,
:func:`~repro.storage.records.read_partitions`), the members being row
ranges of it (:class:`~repro.s2t.result.Members`); the tree keeps no batch,
only the query's result refers to it — so the tree's memory does not grow
with the archived data.  :meth:`ReTraTree.load_members` and
:meth:`ReTraTree.load_unclustered` read one partition the same way.
:class:`ReTraTreeStats` counts the read-path work (``partitions_decoded``,
``merge_pairs_evaluated``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from repro.hermes.distances import hausdorff_distance_pairs, spatiotemporal_distance_matrix
from repro.hermes.frame import MODFrame, TrajectoryRows, as_frame, subtrajectory_from_slice
from repro.hermes.mod import MOD
from repro.hermes.trajectory import SubTrajectory, Trajectory
from repro.hermes.types import BoxST, Period
from repro.qut.params import QuTParams
from repro.s2t.pipeline import S2TClustering
from repro.storage.catalog import StorageManager
from repro.storage.heapfile import RID
from repro.storage.records import decode_records, encode_record, read_partitions

__all__ = ["ClusterEntry", "SubChunk", "ReTraTree", "subtrajectory_from_slice"]


def _bbox_faces_within(a: MODFrame, b: MODFrame, d: float) -> np.ndarray:
    """Per row pair ``(i, j)`` of ``a`` and ``b``: can their Hausdorff distance be within ``d`` at all?

    ``H(A, B) <= d`` needs every face of ``A``'s bounding box within ``d`` of
    the matching face of ``B``'s (see
    :func:`~repro.hermes.distances.hausdorff_distance_pairs`); pairs failing
    that are rejected without computing the distance.  The bound carries a
    few ulps of slack so coordinate rounding can only let a pair through,
    never reject one the exact test would accept.

    Each gap ``g`` is measured as the kernel measures distances,
    ``sqrt(g*g)``: where ``g*g`` underflows to 0 the kernel's squared
    distances do too, so a pair whose computed distance is within ``d`` is
    never rejected, however small its coordinates.  Returns a
    ``(len(a), len(b))`` boolean array.
    """

    def face(lo_a: np.ndarray, lo_b: np.ndarray) -> np.ndarray:
        return np.abs(lo_a[:, None] - lo_b[None, :])

    gap = np.maximum(
        np.maximum(face(a.xmins, b.xmins), face(a.xmaxs, b.xmaxs)),
        np.maximum(face(a.ymins, b.ymins), face(a.ymaxs, b.ymaxs)),
    )
    gap = np.sqrt(gap * gap)
    return gap <= d + 4.0 * np.spacing(gap + d)


def _boxes_within(
    xlo: np.ndarray, xhi: np.ndarray, ylo: np.ndarray, yhi: np.ndarray, frame: MODFrame, d: float
) -> np.ndarray:
    """Per (box, frame row): can their co-movement distance be within ``d`` at all?

    The mean of the synchronous distances is at least the gap between the
    two bounding boxes, so a pair whose boxes lie more than ``d`` apart is
    refused (module docstring).  The test only ever keeps too many pairs:
    each box is widened by 8 ulps of its coordinates (an interpolated
    position can overshoot its samples' box by an ulp), the gap is measured
    as the kernel measures a distance (``sqrt(gx*gx + gy*gy)``, so where a
    square underflows both read 0), and the bound carries 16 ulps of ``d``
    for the rounding of the mean.  Returns a ``(len(xlo), len(frame))``
    boolean array, the ``candidates`` of
    :func:`~repro.hermes.distances.spatiotemporal_distance_matrix`.
    """

    def gap(lo_a: np.ndarray, hi_a: np.ndarray, lo_b: np.ndarray, hi_b: np.ndarray) -> np.ndarray:
        # (box, row) gap along one axis, each box widened by its pad.
        pad_a = 8.0 * np.spacing(np.maximum(np.abs(lo_a), np.abs(hi_a)))
        pad_b = 8.0 * np.spacing(np.maximum(np.abs(lo_b), np.abs(hi_b)))
        below = (lo_b - pad_b)[None, :] - (hi_a + pad_a)[:, None]
        above = (lo_a - pad_a)[:, None] - (hi_b + pad_b)[None, :]
        return np.maximum(np.maximum(below, above), 0.0)

    gx = gap(xlo, xhi, frame.xmins, frame.xmaxs)
    gy = gap(ylo, yhi, frame.ymins, frame.ymaxs)
    gx *= gx
    gy *= gy
    gx += gy
    return np.sqrt(gx, out=gx) <= d + 16.0 * np.spacing(d)


def _nearest_within(frame: MODFrame, trajs: Sequence[Trajectory], d: float) -> list[int]:
    """Per trajectory: the first frame row nearest to it within ``d``, or ``-1``.

    Distances are :func:`~repro.hermes.distances.spatiotemporal_distance`
    over 32 common instants, all from one
    :func:`~repro.hermes.distances.spatiotemporal_distance_matrix` call that
    skips every pair whose bounding boxes lie more than ``d`` apart
    (:func:`_boxes_within`).  The prune only ever keeps too many pairs, so
    the answer is exactly the unpruned argmin's.

    The QuT temporal tolerance ``t`` needs no test here: it widens a
    lifespan-overlap gate, and every pair the distance is finite for already
    shares a lifespan, so ``t`` never refuses a pair.
    """
    firsts = np.cumsum([0, *(t.num_points for t in trajs[:-1])])
    xs = np.concatenate([t.xs for t in trajs])
    ys = np.concatenate([t.ys for t in trajs])
    candidates = _boxes_within(
        np.minimum.reduceat(xs, firsts),
        np.maximum.reduceat(xs, firsts),
        np.minimum.reduceat(ys, firsts),
        np.maximum.reduceat(ys, firsts),
        frame,
        d,
    )
    dists = spatiotemporal_distance_matrix(frame, trajs, 32, candidates)
    best = dists.argmin(axis=1)
    return np.where(dists[np.arange(len(trajs)), best] <= d, best, -1).tolist()


def _count(data: dict, name: str) -> int:
    """``data[name]``, a record count of a tree section; :class:`ValueError` unless it is an ``int``."""
    value = data[name]
    if type(value) is not int:
        raise ValueError(f"tree section: {name} is {value!r}, not an int")
    return value


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

    def absorb(self, sub: SubTrajectory, entry: ClusterEntry | None, tree: "ReTraTree") -> bool:
        """Absorb one sub-trajectory piece into this sub-chunk.

        ``entry`` is the level-3 entry whose representative is closest to
        the piece within the distance threshold, or ``None`` — decided
        against the current entries by :meth:`ReTraTree._decide`.  The piece
        joins that entry's member partition; otherwise it lands in the
        *unclustered* (outlier) buffer, and an overflowing buffer triggers a
        localised re-clustering of this sub-chunk only
        (:meth:`ReTraTree.flush_unclustered`).  This is the single
        absorption step of :meth:`ReTraTree.append`, and so of the bulk load.

        Parameters
        ----------
        sub:
            The piece, already cut to (mostly) this sub-chunk's period.
        entry:
            The entry the piece joins, or ``None`` to buffer it.
        tree:
            The owning tree — provides storage and stats.

        Returns
        -------
        ``True`` when the piece was assigned to an existing cluster entry,
        ``False`` when it was buffered as unclustered.
        """
        params = tree.params
        assert params is not None and params.overflow_threshold is not None
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
    # scans that decoded every record, and fills of the merge adjacency — a
    # query that re-touches a sub-chunk pair moves only the first.
    partitions_decoded: int = 0
    merge_pairs_evaluated: int = 0


class ReTraTree:
    """Incrementally maintained index for time-aware sub-trajectory clustering."""

    # Class-level counter of bulk loads (:meth:`build`).  The restart
    # recovery tests assert through it (together with a fresh tree's zeroed
    # ``stats``) that reopening a persisted tree never re-runs the bulk load.
    build_calls: int = 0

    def __init__(
        self,
        params: QuTParams | None = None,
        storage: StorageManager | None = None,
        origin: float = 0.0,
        name: str = "retratree",
    ) -> None:
        self.name = name
        self._raw_params = params or QuTParams()
        self.params: QuTParams | None = None  # resolved lazily on first insert
        self.storage = storage or StorageManager()
        self.origin = origin
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

    # -- record archival -----------------------------------------------------------------

    def _archive(self, partition_name: str, sub: SubTrajectory) -> RID:
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

    def _read(self, partition_names: list[str]) -> tuple[TrajectoryRows, np.ndarray]:
        """The named partitions' records as one batch, and each partition's rows.

        One :func:`~repro.storage.records.read_partitions` call; each
        partition read counts once in ``stats.partitions_decoded``.
        """
        self.stats.partitions_decoded += len(partition_names)
        return read_partitions([self.storage.get(name).heapfile for name in partition_names])

    def load_members(self, entry: ClusterEntry) -> list[SubTrajectory]:
        """Load a cluster entry's archived members from its partition."""
        return self._read([entry.partition_name])[0].subtrajectories()

    def load_unclustered(self, subchunk: SubChunk) -> list[SubTrajectory]:
        """Load a sub-chunk's unclustered sub-trajectories."""
        return self._read([subchunk.unclustered_partition])[0].subtrajectories()

    def load_subchunk(self, subchunk: SubChunk) -> tuple[TrajectoryRows, np.ndarray]:
        """Every record a sub-chunk archives, read as one batch.

        Reads the entries' member partitions in entry order, then the
        unclustered partition, with one
        :func:`~repro.storage.records.read_partitions` call into one checked
        frame.  Returns ``(batch, bounds)``: partition ``i``'s records are
        rows ``bounds[i]:bounds[i + 1]`` — entry ``i``'s members for
        ``i < len(subchunk.entries)``, the unclustered records last.  Each
        partition read counts once in ``stats.partitions_decoded``, as with
        :meth:`load_members` / :meth:`load_unclustered`.
        """
        names = [entry.partition_name for entry in subchunk.entries]
        names.append(subchunk.unclustered_partition)
        return self._read(names)

    # -- insertion ----------------------------------------------------------------------

    def _cut(
        self,
        traj: Trajectory,
        partition_frames: dict[tuple[int, int], MODFrame],
        parent_frame: MODFrame,
    ) -> list[SubTrajectory]:
        """Cut ``traj``, a row of ``parent_frame``, at the sub-chunk boundaries it crosses.

        A sub-chunk cursor walks the lifespan: from the sub-chunk holding
        the first instant, it hops just past each sub-chunk's end until the
        one holding the last instant.  Each piece comes from the sub-chunk's
        *partition frame* — ``parent_frame.slice_period(subchunk period)``,
        computed once for **all** trajectories of the batch in one pass —
        not from a ``traj.slice_period`` per (trajectory, sub-chunk) pair;
        the two slicings agree row for row.  Returns the pieces in time
        order.
        """
        self.stats.trajectories_inserted += 1
        delta = self.params.delta
        end_chunk = self._locate(traj.period.tmax)
        cursor = traj.period.tmin
        pieces = []
        seen: set[tuple[int, int]] = set()
        while True:
            key = self._locate(cursor)
            if key not in seen:
                seen.add(key)
                partition = partition_frames.get(key)
                if partition is None:
                    partition = parent_frame.slice_period(self._subchunk_period(*key))
                    partition_frames[key] = partition
                row = partition.maybe_row_of(traj.key)
                if row is not None:
                    pieces.append(subtrajectory_from_slice(traj, partition.trajectory_of(row)))
            if key == end_chunk or cursor >= traj.period.tmax:
                return pieces
            cursor = self._subchunk_period(*key).tmax + delta * 1e-9

    def _insert_pieces(self, pieces: Sequence[SubTrajectory]) -> set[tuple[int, int]]:
        """Insert pieces in order, deciding each sub-chunk's queue in one pass.

        Each piece belongs to the sub-chunk holding its temporal midpoint.
        The pieces are absorbed one by one in the given order
        (:meth:`SubChunk.absorb`), but the entry each one joins is decided
        ahead: on a sub-chunk's first piece, every piece still queued for it
        is decided in one :meth:`_decide` pass.  A decision holds while the
        sub-chunk's ``entries_version`` does — absorbing a piece changes no
        representative — and an overflow flush that adds entries bumps the
        version, so the sub-chunk's remaining pieces are decided again.
        Returns the keys of the sub-chunks that received a piece.
        """
        keys = [self._locate((p.period.tmin + p.period.tmax) / 2.0) for p in pieces]
        queues: dict[tuple[int, int], list[SubTrajectory]] = {}
        for piece, key in zip(pieces, keys):
            queues.setdefault(key, []).append(piece)
        absorbed = dict.fromkeys(queues, 0)
        # Per sub-chunk: (entries_version, queue position of choices[0], choices).
        decided: dict[tuple[int, int], tuple[int, int, list[ClusterEntry | None]]] = {}
        for piece, key in zip(pieces, keys):
            subchunk = self._get_subchunk(*key)
            self.stats.pieces_inserted += 1
            position = absorbed[key]
            absorbed[key] = position + 1
            version, first, choices = decided.get(key, (-1, 0, []))
            if version != subchunk.entries_version:
                first, choices = position, self._decide(subchunk, queues[key][position:])
                decided[key] = (subchunk.entries_version, first, choices)
            subchunk.absorb(piece, choices[position - first], self)
        return set(keys)

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

    def _decide(
        self, subchunk: SubChunk, pieces: Sequence[SubTrajectory]
    ) -> list[ClusterEntry | None]:
        """Per piece: the entry whose representative is closest within the threshold.

        ``None`` where no representative is within the distance threshold.
        One pruned pass over the sub-chunk's cached representative frame
        decides every piece (:func:`_nearest_within`).
        """
        params = self.params
        assert params is not None and params.distance_threshold is not None
        if not subchunk.entries or not pieces:
            return [None] * len(pieces)
        rows = _nearest_within(
            self._rep_frame(subchunk), [piece.traj for piece in pieces], params.distance_threshold
        )
        return [None if row < 0 else subchunk.entries[row] for row in rows]

    def merge_adjacency(self, earlier: SubChunk, later: SubChunk) -> np.ndarray:
        """Which cluster entries of two sub-chunks continue each other (cached).

        A boolean ``(len(earlier.entries), len(later.entries))`` matrix:
        cell ``[i, j]`` is true when the two entries' representatives
        co-move (time-aware distance over 32 common instants within the
        distance threshold) *or* trace the same spatial path (Hausdorff
        distance within it).  That depends on the stored representatives
        only — never on a query window — so it is computed once per pair
        and kept until either sub-chunk's ``entries_version`` moves.

        One pass over the two :meth:`_rep_frame` snapshots: the whole
        co-movement matrix from one
        :func:`~repro.hermes.distances.spatiotemporal_distance_matrix` call
        (each cell depends on its own pair only) that skips the pairs whose
        boxes lie farther apart than the threshold (:func:`_boxes_within`,
        the insertion prune), the bounding-box face test over both frames
        at once (:func:`_bbox_faces_within`), and
        :func:`~repro.hermes.distances.hausdorff_distance_pairs` for just
        the pairs that fail co-movement and pass that test.  Both tests
        only skip pairs the threshold refuses anyway, so every cell is what
        the unpruned per-pair distances give; every cell counts in
        ``merge_pairs_evaluated``.
        """
        params = self.params
        assert params is not None and params.distance_threshold is not None
        threshold = params.distance_threshold
        key = (earlier.key, later.key)
        versions = (earlier.entries_version, later.entries_version)
        cached = self._merge_edges.get(key)
        if cached is not None and cached[0] == versions:
            return cached[1]
        a, b = self._rep_frame(earlier), self._rep_frame(later)
        reps = [entry.representative.traj for entry in later.entries]
        candidates = _boxes_within(b.xmins, b.xmaxs, b.ymins, b.ymaxs, a, threshold)
        edges = np.ascontiguousarray(
            spatiotemporal_distance_matrix(a, reps, 32, candidates).T <= threshold
        )
        rows, cols = np.nonzero(~edges & _bbox_faces_within(a, b, threshold))
        edges[rows, cols] = hausdorff_distance_pairs(a, b, rows, cols) <= threshold
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
        key_map: dict[tuple[str, str], SubTrajectory] = {}
        for sub in pending:
            key_map.setdefault(sub.traj.key, sub)
        result = S2TClustering(params.s2t).fit(
            MODFrame.from_trajectories(sub.traj for sub in key_map.values())
        )

        # Back-propagate the new representatives into the in-memory level 3.
        # S2T may split one pending piece into several sub-trajectories; each
        # original piece is archived exactly once, in the first cluster one of
        # its sub-trajectories lands in.
        archived: set[tuple[str, str]] = set()
        for cluster in result.clusters:
            rep_parent = key_map[cluster.representative.parent_key]
            entry = self._open_entry(subchunk, rep_parent)
            for parent_key in cluster.members.parent_keys():
                original = key_map[parent_key]
                if original.traj.key in archived:
                    continue
                archived.add(original.traj.key)
                self._archive_member(entry, original)
            if entry.member_count > 0:
                subchunk.entries.append(entry)
                subchunk.touch_entries()
            else:
                self.storage.drop_partition(entry.partition_name)

        # Re-insert the outliers: they may now fit one of the new representatives.
        # Archiving a member changes no representative, so one pass decides all.
        reinserted: list[SubTrajectory] = []
        for parent_key in result.outliers.parent_keys():
            original = key_map.get(parent_key)
            if original is None or original.traj.key in archived:
                continue
            archived.add(original.traj.key)
            reinserted.append(original)
        leftovers: list[SubTrajectory] = []
        for original, entry in zip(reinserted, self._decide(subchunk, reinserted)):
            if entry is not None:
                self._archive_member(entry, original)
                self.stats.outliers_reinserted += 1
            else:
                leftovers.append(original)

        # Rebuild the unclustered partition with only the leftovers.
        old_partition = subchunk.unclustered_partition
        self.storage.drop_partition(old_partition)
        self.storage.get_or_create(old_partition)
        for sub in leftovers:
            self._archive(old_partition, sub)
        subchunk.unclustered_count = len(leftovers)
        self.stats.maintenance_seconds += time.perf_counter() - start

    # -- incremental maintenance: the one way in -------------------------------------------------

    def append(self, delta: MODFrame | Sequence[Trajectory]) -> dict[str, int]:
        """Absorb a batch of newly arrived trajectories without rebuilding.

        This is the paper's incremental-maintenance claim made concrete, and
        the tree's only insertion path — :meth:`build` is an append into an
        empty tree.  Each trajectory is cut at the temporal grid, every
        piece is voted against the touched sub-chunk's representatives
        (:meth:`_insert_pieces`, one pruned pass per sub-chunk), pieces
        in time ranges the tree has never seen open fresh sub-chunks (which
        extends the grid in either direction — leading chunks get negative
        chunk indices), and after the batch the *touched* sub-chunks whose
        outlier buffers reached the flush threshold (``max(2, gamma)``) are
        re-clustered, in key order.  :attr:`build_calls` is untouched.

        Parameters
        ----------
        delta:
            The new trajectories, in arrival order, as a frame (the
            engine's append delta, or the whole dataset of a bulk load; a
            sequence of trajectories is snapshotted once).  Pieces are
            derived by slicing it per sub-chunk (:meth:`_cut`).

        Returns
        -------
        A counter dict: ``trajectories`` / ``pieces`` absorbed, ``assigned``
        vs ``unclustered`` pieces, ``subchunks_touched``, ``subchunks_new``
        and ``s2t_runs`` (localised re-clusterings triggered).

        A tree with no resolved parameters yet — a fresh one, or one built
        over an empty dataset — resolves them over the first non-empty
        batch and takes its earliest instant as the grid origin.
        """
        frame = as_frame(delta)
        counters = {
            "trajectories": 0,
            "pieces": 0,
            "assigned": 0,
            "unclustered": 0,
            "subchunks_touched": 0,
            "subchunks_new": 0,
            "s2t_runs": 0,
        }
        if not len(frame):
            return counters
        if self.params is None:
            self.origin = float(frame.tmins.min())
            self.params = self._raw_params.resolved(frame)
        pieces0 = self.stats.pieces_inserted
        assigned0 = self.stats.pieces_assigned
        unclustered0 = self.stats.pieces_unclustered
        s2t0 = self.stats.s2t_runs
        subchunks0 = len(self._subchunks)
        partition_frames: dict[tuple[int, int], MODFrame] = {}
        touched = self._insert_pieces(
            [
                piece
                for row in range(len(frame))
                for piece in self._cut(frame.trajectory_of(row), partition_frames, frame)
            ]
        )
        # Only sub-chunks this batch touched are candidates for an S2T
        # re-clustering of their outlier buffers (on a fresh tree: all).
        for key in sorted(touched):
            subchunk = self._subchunks[key]
            if subchunk.unclustered_count >= max(2, self.params.gamma):
                self.flush_unclustered(subchunk)
        counters.update(
            trajectories=len(frame),
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
            "reps_partition": reps_partition,
            "reps_count": reps.record_count,
            "subchunks": subchunks,
        }

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

        Every partition the section names is opened eagerly, a sub-chunk's
        partitions together (:meth:`~repro.storage.catalog.StorageManager.open_partitions`):
        each file is read once, whole, and verified against its recorded
        page CRCs and record count before any record is decoded — the
        representatives included — from slot directories and chunk headers
        alone, its pages then left in its buffer pool.  Page-CRC damage and
        a record count that disagrees with the manifest surface here, as
        :class:`~repro.storage.errors.CorruptPartitionError` — a
        :class:`ValueError` — and the engine degrades to a rebuild instead
        of recovering a tree referencing phantom trajectories.  The typical
        cause of a count mismatch is a crash in the middle of an append
        whose buffered member records were partly flushed by buffer-pool
        eviction before the manifest commit; every mutation (a bulk load
        or rebuild, an :meth:`append`) re-persists the manifest, so a
        committed state always passes.

        Each entry's ``member_count`` and ``bbox``, and each sub-chunk's
        ``unclustered_count``, are then *trusted* as the manifest states
        them: the section sits under the manifest's ``manifest_crc``, a
        member partition only ever grows between persists, and JSON
        round-trips a float exactly — so an equal count means the same
        records and therefore the same box.  What is no longer noticed here
        is a record whose page passes its CRC yet does not decode; it fails
        in the first query that loads it.  A count that is not an ``int``
        (``null``, a float, a ``bool``) raises :class:`ValueError` naming its
        field, since the partition it counts could not be checked.
        """
        tree = cls(
            params=QuTParams.from_dict(manifest["raw_params"]),
            storage=storage,
            origin=float(manifest["origin"]),
            name=manifest["name"],
        )
        tree.params = QuTParams.from_dict(manifest["params"])
        tree._next_cluster_id = int(manifest["next_cluster_id"])
        [reps] = storage.open_partitions(
            [(manifest.get("reps_partition") or tree._reps_partition, _count(manifest, "reps_count"))]
        )
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
            subchunk.unclustered_count = _count(sc_data, "unclustered_count")
            storage.open_partitions(
                [(subchunk.unclustered_partition, subchunk.unclustered_count)]
                + [(e["partition"], _count(e, "member_count")) for e in sc_data["entries"]]
            )
            for entry_data in sc_data["entries"]:
                bbox = entry_data["bbox"]
                subchunk.entries.append(
                    ClusterEntry(
                        cluster_id=int(entry_data["cluster_id"]),
                        representative=next(representatives),
                        partition_name=entry_data["partition"],
                        member_count=_count(entry_data, "member_count"),
                        bbox=BoxST(*bbox) if bbox is not None else None,
                    )
                )
            subchunk.touch_entries()
            tree._subchunks[key] = subchunk
        tree.recovered = True
        return tree

    # -- bulk construction -----------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        mod: MODFrame | MOD,
        params: QuTParams | None = None,
        storage: StorageManager | None = None,
        name: str = "retratree",
        frame: MODFrame | None = None,
    ) -> "ReTraTree":
        """Build a ReTraTree over an existing dataset: an append into an empty tree.

        ``mod`` is the dataset's frame (what the engine passes); a MOD is
        snapshotted once, or read through ``frame``, its prebuilt frame.
        The grid — origin and parameters — is resolved over the whole
        dataset, and its rows are inserted in dataset order (:meth:`append`).
        """
        ReTraTree.build_calls += 1
        tree = cls(params=params, storage=storage, name=name)
        tree.append(as_frame(mod) if frame is None else frame)
        return tree
