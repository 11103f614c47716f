"""Reference implementations QuT's batched paths are pinned against.

All of these used to live in ``repro.qut.query``.  The engine now merges
from the matrices the tree derives once (``ReTraTree.merge_adjacency``),
decodes each touched sub-chunk as one batch (``ReTraTree.load_subchunk``)
and restricts it by slicing that batch's frame.  What it replaced survives
here as the equivalence oracles: the per-pair merge loop, the per-entry
loop that filled a merge matrix one column at a time, the per-member
restriction loop, and the per-partition loader — one decode per partition,
then one re-concatenated frame per partially covered sub-chunk.

The insertion path decides every queued piece of a sub-chunk in one pruned
pass (``ReTraTree._insert_pieces`` / ``ReTraTree._decide``).  What it
replaced survives here too: the per-piece assignment against the
representatives (scalar and batched) and the insert loop that decides each
piece only when it is absorbed.
"""

from __future__ import annotations

import math

import numpy as np

from repro.hermes.distances import (
    hausdorff_distance,
    spatiotemporal_distance,
    spatiotemporal_distance_batch,
)
from repro.hermes.frame import MODFrame
from repro.hermes.trajectory import SubTrajectory
from repro.hermes.types import Period
from repro.qut.params import QuTParams
from repro.qut.query import QuTClustering
from repro.qut.retratree import ClusterEntry, ReTraTree, SubChunk, subtrajectory_from_slice


def restrict_members_loop(members: list[SubTrajectory], window: Period) -> list[SubTrajectory]:
    """Per-member ``Trajectory.slice_period`` restriction of one member list."""
    out: list[SubTrajectory] = []
    for member in members:
        piece = member.traj.slice_period(window)
        if piece is not None:
            out.append(subtrajectory_from_slice(member.traj, piece))
    return out


def restrict_member_groups(
    groups: list[list[SubTrajectory]], window: Period
) -> list[list[SubTrajectory]]:
    """Restrict several member lists to the query window in one pass.

    All groups' trajectories are snapshot into a single
    :class:`~repro.hermes.frame.MODFrame` and restricted with one
    batched :meth:`~repro.hermes.frame.MODFrame.slice_period_rows` call
    (one boundary-interpolation pass for the whole sub-chunk) instead of
    a per-member Python ``slice_period`` loop; the surviving rows are
    attributed back to their groups through the returned row indices.
    The frame slicing is row-for-row identical to
    :meth:`Trajectory.slice_period
    <repro.hermes.trajectory.Trajectory.slice_period>`, so each output
    list matches the per-member loop on its input exactly.
    """
    flat = [member for group in groups for member in group]
    out: list[list[SubTrajectory]] = [[] for _ in groups]
    if not flat:
        return out
    frame = MODFrame.from_trajectories(member.traj for member in flat)
    sliced, rows = frame.slice_period_rows(window)
    group_of: list[int] = []
    for g, group in enumerate(groups):
        group_of.extend([g] * len(group))
    for k, row in enumerate(rows):
        row = int(row)
        out[group_of[row]].append(
            subtrajectory_from_slice(flat[row].traj, sliced.trajectory_of(k))
        )
    return out


def restrict_members(members: list[SubTrajectory], window: Period) -> list[SubTrajectory]:
    """Restrict one member list to the query window (frame-native)."""
    return restrict_member_groups([members], window)[0]


def load_partial_clusters_per_partition(
    tree: ReTraTree, subchunks: list[SubChunk], window: Period
) -> tuple[list[tuple[SubChunk, int, list[SubTrajectory]]], list[SubTrajectory]]:
    """Per sub-chunk, each entry's members inside ``window`` plus the outliers.

    Returns ``(rows, outliers)``: one ``(sub-chunk, entry position,
    members)`` row per entry with at least one member in the window, in
    sub-chunk then entry order, and the unclustered sub-trajectories.
    """
    rows: list[tuple[SubChunk, int, list[SubTrajectory]]] = []
    outliers: list[SubTrajectory] = []
    for subchunk in subchunks:
        groups = [tree.load_members(entry) for entry in subchunk.entries]
        pending = tree.load_unclustered(subchunk)
        if not window.contains_period(subchunk.period):
            # One batched frame restriction for the whole sub-chunk —
            # every entry's members plus the unclustered set.
            restricted = restrict_member_groups([*groups, pending], window)
            groups, pending = restricted[:-1], restricted[-1]
        for position, members in enumerate(groups):
            if members:
                rows.append((subchunk, position, members))
        outliers.extend(pending)
    return rows, outliers


class PerPartitionQuT(QuTClustering):
    """QuT answering through :func:`load_partial_clusters_per_partition`."""

    def _load_partial_clusters(self, subchunks, window):
        return load_partial_clusters_per_partition(self.tree, subchunks, window)


def temporal_gap(a: Period, b: Period) -> float:
    """Gap between two periods (0 when they touch or overlap)."""
    if a.overlaps(b):
        return 0.0
    return max(b.tmin - a.tmax, a.tmin - b.tmax)


def merge_across_subchunks_scalar(
    params: QuTParams,
    partial: list[tuple[SubChunk, int, list[SubTrajectory]]],
) -> list[tuple[SubTrajectory, list[SubTrajectory]]]:
    """The pre-PR-16 merge: one scalar distance decision per pair of rows.

    ``partial`` rows are ``(sub-chunk, entry position, members)`` as in
    ``QuTClustering._merge_across_subchunks``; the output has the same shape
    and, for the same connectivity, the same order.
    """
    threshold = params.distance_threshold
    n = len(partial)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    def representative(row: int) -> SubTrajectory:
        subchunk, position, _members = partial[row]
        return subchunk.entries[position].representative

    for i in range(n):
        sc_i = partial[i][0]
        for j in range(i + 1, n):
            sc_j = partial[j][0]
            if sc_i.key == sc_j.key:
                continue
            if temporal_gap(sc_i.period, sc_j.period) > params.temporal_tolerance + 1e-9:
                continue
            rep_i, rep_j = representative(i).traj, representative(j).traj
            if spatiotemporal_distance(rep_i, rep_j, max_samples=32) <= threshold:
                union(i, j)
            elif hausdorff_distance(rep_i, rep_j) <= threshold:
                union(i, j)

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)

    merged: list[tuple[SubTrajectory, list[SubTrajectory]]] = []
    for indices in groups.values():
        best = max(indices, key=lambda idx: len(partial[idx][2]))
        members: list[SubTrajectory] = []
        for idx in indices:
            members.extend(partial[idx][2])
        merged.append((representative(best), members))
    return merged


def merge_adjacency_per_entry(tree: ReTraTree, earlier: SubChunk, later: SubChunk) -> tuple[np.ndarray, int]:
    """The per-entry merge loop ``ReTraTree.merge_adjacency`` replaced, and its pair count.

    One column per entry of ``later``: the co-movement distances from its
    representative to every representative of ``earlier`` in one
    :func:`spatiotemporal_distance_batch` call; when some row fails that
    test yet passes the bounding-box face pre-reject, the Hausdorff
    distance of every row (here the scalar :func:`hausdorff_distance`, bit
    for bit the batched kernel this loop called) links it too.  Returns the
    ``(len(earlier.entries), len(later.entries))`` matrix and the number of
    pairs it evaluated (every cell).
    """
    threshold = tree.params.distance_threshold
    reps = [entry.representative.traj for entry in earlier.entries]
    frame = MODFrame.from_trajectories(reps)
    edges = np.zeros((len(earlier.entries), len(later.entries)), dtype=np.bool_)
    for j, entry in enumerate(later.entries):
        rep = entry.representative.traj
        linked = spatiotemporal_distance_batch(frame, rep, max_samples=32) <= threshold
        gap = np.maximum(
            np.maximum(np.abs(frame.xmins - rep.xs.min()), np.abs(frame.xmaxs - rep.xs.max())),
            np.maximum(np.abs(frame.ymins - rep.ys.min()), np.abs(frame.ymaxs - rep.ys.max())),
        )
        gap = np.sqrt(gap * gap)
        faces_within = gap <= threshold + 4.0 * np.spacing(gap + threshold)
        if np.any(~linked & faces_within):
            linked |= np.array([hausdorff_distance(row, rep) for row in reps]) <= threshold
        edges[:, j] = linked
    return edges, edges.size


def assign_to_representatives(
    sub: SubTrajectory,
    representatives: list[SubTrajectory],
    eps: float,
    temporal_tolerance: float = 0.0,
) -> tuple[int | None, float]:
    """Index of the closest representative within ``eps``, and the distance.

    Returns ``(None, inf)`` when no representative is reachable.  The
    temporal tolerance expands each representative's lifespan before checking
    temporal overlap, implementing the ``t`` parameter of the paper's QUT
    signature.

    This is the scalar reference; :func:`assign_to_representatives_batch`
    computes the same answer against a pre-built representative frame.
    """
    best_idx: int | None = None
    best_dist = math.inf
    for idx, rep in enumerate(representatives):
        if temporal_tolerance > 0:
            rep_period = rep.period.expand(temporal_tolerance)
            if not rep_period.overlaps(sub.period):
                continue
        dist = spatiotemporal_distance(rep.traj, sub.traj, max_samples=32)
        if dist < best_dist:
            best_dist = dist
            best_idx = idx
    if best_dist > eps:
        return None, best_dist
    return best_idx, best_dist


def assign_to_representatives_batch(
    sub: SubTrajectory,
    rep_frame: MODFrame,
    eps: float,
    temporal_tolerance: float = 0.0,
    max_samples: int = 32,
) -> tuple[int | None, float]:
    """Batched :func:`assign_to_representatives` against a representative frame.

    ``rep_frame`` holds the representatives' precomputed sample grids (row
    ``i`` = representative ``i``); distances to all of them are computed in
    one :func:`spatiotemporal_distance_batch` call.
    """
    if len(rep_frame) == 0:
        return None, math.inf
    dists = spatiotemporal_distance_batch(rep_frame, sub.traj, max_samples=max_samples)
    if temporal_tolerance > 0:
        overlaps = rep_frame.overlaps_period(sub.period, temporal_tolerance)
        dists = np.where(overlaps, dists, math.inf)
    idx = int(np.argmin(dists))
    best_dist = float(dists[idx])
    if best_dist > eps:
        return None, best_dist
    return idx, best_dist


def decide_per_piece(
    tree: ReTraTree, subchunk: SubChunk, pieces: list[SubTrajectory]
) -> list[ClusterEntry | None]:
    """``ReTraTree._decide`` as one :func:`assign_to_representatives_batch` call per piece."""
    params = tree.params
    assert params is not None and params.distance_threshold is not None
    if not subchunk.entries:
        return [None] * len(pieces)
    out: list[ClusterEntry | None] = []
    for piece in pieces:
        idx, _dist = assign_to_representatives_batch(
            piece,
            tree._rep_frame(subchunk),
            eps=params.distance_threshold,
            temporal_tolerance=params.temporal_tolerance,
            max_samples=32,
        )
        out.append(None if idx is None else subchunk.entries[idx])
    return out


def insert_pieces_one_by_one(
    tree: ReTraTree, pieces: list[SubTrajectory]
) -> set[tuple[int, int]]:
    """``ReTraTree._insert_pieces`` with no lookahead: each piece decided as it is absorbed."""
    touched: set[tuple[int, int]] = set()
    for piece in pieces:
        key = tree._locate((piece.period.tmin + piece.period.tmax) / 2.0)
        subchunk = tree._get_subchunk(*key)
        tree.stats.pieces_inserted += 1
        [entry] = decide_per_piece(tree, subchunk, [piece])
        subchunk.absorb(piece, entry, tree)
        touched.add(key)
    return touched
