"""TRACLUS: partition-and-group trajectory clustering (Lee et al., 2007).

TRACLUS works purely in space:

1. **Partition**: every trajectory is approximated by *characteristic
   points* chosen with a Minimum Description Length criterion — a point
   becomes characteristic when continuing the current approximation segment
   would cost more bits (perpendicular + angular distance) than starting a
   new one.
2. **Group**: the resulting directed line segments are clustered with a
   DBSCAN-style procedure under the classic three-component segment distance
   (perpendicular, parallel, angular).
3. Segments in the same density-connected set form a cluster; segments never
   reaching core density are noise.

The time dimension is ignored throughout — the contrast the ICDE'18 paper
draws against S2T.  Results are mapped onto the shared
:class:`~repro.s2t.result.ClusteringResult` model so the quality metrics and
the VA module can consume them interchangeably.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro.hermes.mod import MOD
from repro.hermes.trajectory import SubTrajectory, Trajectory
from repro.s2t.result import Cluster, ClusteringResult

__all__ = ["TraclusParams", "TraclusClustering", "mdl_partition", "segment_distance"]


@dataclass(frozen=True)
class TraclusParams:
    """TRACLUS tuning knobs.

    ``eps`` is the segment-distance neighbourhood radius and ``min_lns`` the
    minimum number of segments for core density — the two hard-to-tune
    parameters the paper alludes to.  ``None`` for ``eps`` resolves to 5 % of
    the spatial diagonal.
    """

    eps: float | None = None
    min_lns: int = 5
    w_perpendicular: float = 1.0
    w_parallel: float = 1.0
    w_angular: float = 1.0
    mdl_cost_advantage: float = 0.0

    def __post_init__(self) -> None:
        if self.eps is not None and not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be finite and positive, got {self.eps!r}")
        if self.min_lns < 1:
            raise ValueError(f"min_lns must be at least 1, got {self.min_lns!r}")

    def resolved(self, mod: MOD) -> "TraclusParams":
        if self.eps is not None:
            return self
        bbox = mod.bbox
        diag = (bbox.dx**2 + bbox.dy**2) ** 0.5
        return TraclusParams(
            eps=0.01 * diag,
            min_lns=self.min_lns,
            w_perpendicular=self.w_perpendicular,
            w_parallel=self.w_parallel,
            w_angular=self.w_angular,
            mdl_cost_advantage=self.mdl_cost_advantage,
        )


# ---------------------------------------------------------------------------
# Phase 1: MDL partitioning
# ---------------------------------------------------------------------------


def _log2(x: float) -> float:
    return math.log2(max(x, 1e-12))


def _perpendicular_angular_cost(points: np.ndarray, start: int, end: int) -> float:
    """Encoding cost L(D|H) of replacing samples ``start..end`` with one segment."""
    seg_vec = points[end] - points[start]
    seg_len = float(np.hypot(*seg_vec))
    cost_perp = 0.0
    cost_ang = 0.0
    for k in range(start, end):
        d1 = _point_to_point_perp(points[start], points[end], points[k])
        d2 = _point_to_point_perp(points[start], points[end], points[k + 1])
        if d1 + d2 > 0:
            perp = (d1 * d1 + d2 * d2) / (d1 + d2)
        else:
            perp = 0.0
        cost_perp += perp
        sub_vec = points[k + 1] - points[k]
        sub_len = float(np.hypot(*sub_vec))
        if seg_len > 0 and sub_len > 0:
            cos_theta = float(np.dot(seg_vec, sub_vec)) / (seg_len * sub_len)
            cos_theta = min(max(cos_theta, -1.0), 1.0)
            sin_theta = math.sqrt(max(0.0, 1.0 - cos_theta * cos_theta))
            cost_ang += sub_len * sin_theta
    return _log2(cost_perp + 1.0) + _log2(cost_ang + 1.0)


def _point_to_point_perp(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> float:
    """Perpendicular distance from ``p`` to line ``ab``."""
    ab = b - a
    denom = float(np.dot(ab, ab))
    if denom <= 0:
        return float(np.hypot(*(p - a)))
    u = float(np.dot(p - a, ab)) / denom
    proj = a + u * ab
    return float(np.hypot(*(p - proj)))


def mdl_partition(traj: Trajectory, cost_advantage: float = 0.0) -> list[int]:
    """Characteristic-point indices of a trajectory (always includes endpoints).

    Implements the approximate MDL partitioning of the TRACLUS paper: scan
    forward, and close the current approximation segment one step before the
    point where the "partition" encoding cost exceeds the "no partition"
    cost (plus ``cost_advantage``).
    """
    points = np.column_stack([traj.xs, traj.ys])
    n = len(points)
    char_points = [0]
    start = 0
    length = 1
    while start + length < n:
        curr = start + length
        seg_len = float(np.hypot(*(points[curr] - points[start])))
        cost_par = _log2(seg_len + 1.0) + _perpendicular_angular_cost(points, start, curr)
        cost_nopar = 0.0
        for k in range(start, curr):
            step = float(np.hypot(*(points[k + 1] - points[k])))
            cost_nopar += _log2(step + 1.0)
        if cost_par > cost_nopar + cost_advantage:
            char_points.append(curr - 1 if curr - 1 > start else curr)
            start = char_points[-1]
            length = 1
        else:
            length += 1
    if char_points[-1] != n - 1:
        char_points.append(n - 1)
    return char_points


# ---------------------------------------------------------------------------
# Phase 2: line-segment distance and grouping
# ---------------------------------------------------------------------------


def segment_distance(
    seg_a: tuple[np.ndarray, np.ndarray],
    seg_b: tuple[np.ndarray, np.ndarray],
    w_perp: float = 1.0,
    w_par: float = 1.0,
    w_ang: float = 1.0,
) -> float:
    """The TRACLUS three-component distance between two directed 2D segments.

    The longer segment plays the role of the "base"; the perpendicular,
    parallel and angular components of the shorter one are combined with the
    given weights.
    """
    (a1, a2), (b1, b2) = seg_a, seg_b
    len_a = float(np.hypot(*(a2 - a1)))
    len_b = float(np.hypot(*(b2 - b1)))
    if len_a >= len_b:
        base1, base2, off1, off2, base_len = a1, a2, b1, b2, len_a
    else:
        base1, base2, off1, off2, base_len = b1, b2, a1, a2, len_b

    d1 = _point_to_point_perp(base1, base2, off1)
    d2 = _point_to_point_perp(base1, base2, off2)
    d_perp = (d1 * d1 + d2 * d2) / (d1 + d2) if (d1 + d2) > 0 else 0.0

    base_vec = base2 - base1
    denom = float(np.dot(base_vec, base_vec))
    if denom > 0:
        u1 = float(np.dot(off1 - base1, base_vec)) / denom
        u2 = float(np.dot(off2 - base1, base_vec)) / denom
        l_par1 = min(abs(u1), abs(1.0 - u1)) * base_len
        l_par2 = min(abs(u2), abs(1.0 - u2)) * base_len
        d_par = min(l_par1, l_par2)
    else:
        d_par = 0.0

    off_vec = off2 - off1
    off_len = float(np.hypot(*off_vec))
    if base_len > 0 and off_len > 0:
        cos_theta = float(np.dot(base_vec, off_vec)) / (base_len * off_len)
        cos_theta = min(max(cos_theta, -1.0), 1.0)
        sin_theta = math.sqrt(max(0.0, 1.0 - cos_theta * cos_theta))
        d_ang = off_len * sin_theta if cos_theta >= 0 else off_len
    else:
        d_ang = 0.0

    return w_perp * d_perp + w_par * d_par + w_ang * d_ang


def segment_distance_matrix(
    segments: list[tuple[np.ndarray, np.ndarray]],
    w_perp: float = 1.0,
    w_par: float = 1.0,
    w_ang: float = 1.0,
    block_size: int = 1024,
) -> np.ndarray:
    """Vectorised pairwise TRACLUS distance matrix.

    Computing the grouping phase's neighbourhoods naively calls
    :func:`segment_distance` O(n^2) times in Python; for the segment counts a
    modest MOD produces (thousands) that dominates the runtime.  This builds
    the full symmetric matrix with NumPy broadcasting instead, processing
    base rows in blocks of ``block_size`` so that peak temporary memory stays
    at ``O(block_size * n)`` instead of ``O(n^2)`` per intermediate.
    """
    n = len(segments)
    if n == 0:
        return np.zeros((0, 0))
    p1 = np.array([s[0] for s in segments], dtype=float)
    p2 = np.array([s[1] for s in segments], dtype=float)
    lengths = np.hypot(*(p2 - p1).T)

    def perp_to_base(base1, base2, pts):
        """Perpendicular distances of ``pts[i, j]`` to lines ``base1[i]->base2[i]``.

        ``base*`` have shape (m, 2); ``pts`` has shape (m, n, 2).
        """
        ab = base2 - base1  # (m, 2)
        denom = np.einsum("ij,ij->i", ab, ab)  # (m,)
        denom_safe = np.where(denom > 0, denom, 1.0)
        ap = pts - base1[:, None, :]
        u = np.einsum("ijk,ik->ij", ap, ab) / denom_safe[:, None]
        proj = base1[:, None, :] + u[..., None] * ab[:, None, :]
        d = np.hypot(pts[..., 0] - proj[..., 0], pts[..., 1] - proj[..., 1])
        point_d = np.hypot(pts[..., 0] - base1[:, None, 0], pts[..., 1] - base1[:, None, 1])
        return np.where(denom[:, None] > 0, d, point_d), u

    vec = p2 - p1
    combined = np.empty((n, n))
    for start in range(0, n, block_size):
        stop = min(start + block_size, n)
        m = stop - start
        b1 = p1[start:stop]
        b2 = p2[start:stop]
        blen = lengths[start:stop]

        # Perpendicular distances of both endpoints of every segment j to the
        # block's base segments, and their projection parameters.
        d1, u1 = perp_to_base(b1, b2, np.broadcast_to(p1[None, :, :], (m, n, 2)))
        d2, u2 = perp_to_base(b1, b2, np.broadcast_to(p2[None, :, :], (m, n, 2)))
        sum_d = d1 + d2
        d_perp = np.where(sum_d > 0, (d1 * d1 + d2 * d2) / np.where(sum_d > 0, sum_d, 1.0), 0.0)

        # Parallel distance: distance of the closest projection to the nearer base endpoint.
        l_par1 = np.minimum(np.abs(u1), np.abs(1.0 - u1)) * blen[:, None]
        l_par2 = np.minimum(np.abs(u2), np.abs(1.0 - u2)) * blen[:, None]
        d_par = np.minimum(l_par1, l_par2)

        # Angular distance, using the offset (column) segment's length.
        len_prod = np.outer(blen, lengths)
        cos = (vec[start:stop] @ vec.T) / np.where(len_prod > 0, len_prod, 1.0)
        cos = np.clip(cos, -1.0, 1.0)
        sin = np.sqrt(np.maximum(0.0, 1.0 - cos * cos))
        d_ang = np.where(cos >= 0, lengths[None, :] * sin, lengths[None, :])
        d_ang = np.where(len_prod > 0, d_ang, 0.0)

        combined[start:stop] = w_perp * d_perp + w_par * d_par + w_ang * d_ang

    # The longer segment is the base: pick entry [i, j] when len_i >= len_j, else [j, i].
    longer_is_row = lengths[:, None] >= lengths[None, :]
    full = np.where(longer_is_row, combined, combined.T)
    np.fill_diagonal(full, 0.0)
    return full


class TraclusClustering:
    """The partition-and-group framework end to end."""

    def __init__(self, params: TraclusParams | None = None) -> None:
        self.params = params or TraclusParams()

    def fit(self, mod: MOD) -> ClusteringResult:
        """Run TRACLUS over the MOD and map the output to the shared result model."""
        if len(mod) == 0:
            return ClusteringResult(method="traclus", clusters=[], outliers=[], params=self.params)
        start_all = time.perf_counter()
        params = self.params.resolved(mod)
        assert params.eps is not None

        # Phase 1: partition every trajectory into characteristic segments.
        t0 = time.perf_counter()
        segments: list[tuple[np.ndarray, np.ndarray]] = []
        seg_subs: list[SubTrajectory] = []
        for traj in mod:
            char_points = mdl_partition(traj, params.mdl_cost_advantage)
            points = np.column_stack([traj.xs, traj.ys])
            for i, j in zip(char_points[:-1], char_points[1:]):
                if j <= i:
                    continue
                segments.append((points[i], points[j]))
                seg_subs.append(traj.subtrajectory(i, j))
        partition_time = time.perf_counter() - t0

        # Phase 2: density-based grouping of segments.
        t0 = time.perf_counter()
        labels = self._dbscan_segments(segments, params)
        group_time = time.perf_counter() - t0

        clusters: dict[int, list[int]] = {}
        noise: list[int] = []
        for idx, label in enumerate(labels):
            if label < 0:
                noise.append(idx)
            else:
                clusters.setdefault(label, []).append(idx)

        result_clusters: list[Cluster] = []
        for cluster_id, indices in enumerate(sorted(clusters.values(), key=len, reverse=True)):
            members = [seg_subs[i] for i in indices]
            representative = self._medoid(indices, segments, params)
            result_clusters.append(
                Cluster(
                    cluster_id=cluster_id,
                    representative=seg_subs[representative],
                    members=members,
                )
            )
        outliers = [seg_subs[i] for i in noise]

        result = ClusteringResult(
            method="traclus",
            clusters=result_clusters,
            outliers=outliers,
            params=params,
            timings={
                "partition": partition_time,
                "grouping": group_time,
                "assembly": time.perf_counter() - start_all - partition_time - group_time,
            },
        )
        result.extras = {"num_segments": len(segments)}
        return result

    # -- internals -------------------------------------------------------------

    def _dbscan_segments(
        self, segments: list[tuple[np.ndarray, np.ndarray]], params: TraclusParams
    ) -> list[int]:
        """DBSCAN over segments with the TRACLUS distance; -1 labels noise."""
        assert params.eps is not None
        n = len(segments)
        labels = [-2] * n  # -2 unvisited, -1 noise, >=0 cluster id
        matrix = segment_distance_matrix(
            segments, params.w_perpendicular, params.w_parallel, params.w_angular
        )
        self._last_distance_matrix = matrix

        def neighbours(i: int) -> list[int]:
            close = np.flatnonzero(matrix[i] <= params.eps)
            return [int(j) for j in close if j != i]

        cluster_id = 0
        for i in range(n):
            if labels[i] != -2:
                continue
            nbrs = neighbours(i)
            if len(nbrs) + 1 < params.min_lns:
                labels[i] = -1
                continue
            labels[i] = cluster_id
            queue = list(nbrs)
            while queue:
                j = queue.pop()
                if labels[j] == -1:
                    labels[j] = cluster_id
                if labels[j] != -2:
                    continue
                labels[j] = cluster_id
                j_nbrs = neighbours(j)
                if len(j_nbrs) + 1 >= params.min_lns:
                    queue.extend(j_nbrs)
            cluster_id += 1
        return labels

    def _medoid(
        self,
        indices: list[int],
        segments: list[tuple[np.ndarray, np.ndarray]],
        params: TraclusParams,
    ) -> int:
        """Index (into the global segment list) of the cluster's medoid segment."""
        matrix = getattr(self, "_last_distance_matrix", None)
        if matrix is not None:
            idx = np.asarray(indices)
            costs = matrix[np.ix_(idx, idx)].sum(axis=1)
            return int(idx[int(np.argmin(costs))])
        best_idx = indices[0]
        best_cost = math.inf
        for i in indices:
            cost = 0.0
            for j in indices:
                if i == j:
                    continue
                cost += segment_distance(
                    segments[i],
                    segments[j],
                    params.w_perpendicular,
                    params.w_parallel,
                    params.w_angular,
                )
            if cost < best_cost:
                best_cost = cost
                best_idx = i
        return best_idx
