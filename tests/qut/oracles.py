"""Scalar reference implementations QuT's batched paths are pinned against.

Both used to live in ``repro.qut.query``; the engine now merges from the
matrices the tree derives once (``ReTraTree.merge_adjacency``) and restricts
members with one frame slice, and the per-pair / per-member loops survive
here as the equivalence oracles.
"""

from __future__ import annotations

from repro.hermes.distances import hausdorff_distance, spatiotemporal_distance
from repro.hermes.trajectory import SubTrajectory
from repro.hermes.types import Period
from repro.qut.params import QuTParams
from repro.qut.retratree import SubChunk, subtrajectory_from_slice


def restrict_members_loop(members: list[SubTrajectory], window: Period) -> list[SubTrajectory]:
    """Per-member ``Trajectory.slice_period`` restriction of one member list."""
    out: list[SubTrajectory] = []
    for member in members:
        piece = member.traj.slice_period(window)
        if piece is not None:
            out.append(subtrajectory_from_slice(member.traj, piece))
    return out


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
