"""Spatiotemporal distance functions.

Hermes exposes a family of trajectory distance operands; the subset
implemented here is what the clustering modules and the baselines need:

* :func:`spatiotemporal_distance` -- time-synchronised average Euclidean
  distance over the common lifespan (the scalar reference of S2T sampling
  and greedy clustering; used by T-OPTICS),
* :func:`spatiotemporal_distance_matrix` -- the same distance from each of
  many trajectories to *every* row of a
  :class:`~repro.hermes.frame.MODFrame` in a single vectorised pass (the
  ReTraTree's entry assignment, one pass per sub-chunk), and
  :func:`spatiotemporal_distance_batch`, its one-trajectory case (SaCO's
  distance rows and QuT's co-movement test),
* :func:`closest_approach_distance` -- minimum synchronous distance,
* :func:`hausdorff_distance` -- spatial Hausdorff distance (time-agnostic,
  used by TRACLUS-style comparisons),
* :func:`hausdorff_distance_batch` -- the same distance from one trajectory
  to every row of a frame (QuT's "same spatial path" merge test over a
  sub-chunk's representative frame),
* :func:`dtw_distance` -- dynamic time warping on the spatial footprint,
* :func:`lcss_similarity` -- longest common subsequence similarity,
* :func:`segment_trajectory_distance` -- distance between one 3D segment and
  a trajectory during the segment's time span.

All functions return ``math.inf`` when the inputs share no common time span
and the distance is inherently time-aware.

The batched kernels and :func:`hausdorff_distance` work on squared
distances ``dx*dx + dy*dy`` and take a square root only where a distance is
returned; the other scalar functions use ``hypot``.  The S2T voting kernel,
``exp(-(dx^2 + dy^2) / (2 sigma^2))`` in :mod:`repro.s2t.voting`, takes no
square root at all.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np
import numpy.typing as npt

from repro.hermes.frame import MAX_BATCH_CELLS, MODFrame
from repro.hermes.interpolation import common_time_grid, synchronize
from repro.hermes.trajectory import Trajectory
from repro.hermes.types import PointST, SegmentST

__all__ = [
    "spatiotemporal_distance",
    "spatiotemporal_distance_batch",
    "spatiotemporal_distance_matrix",
    "closest_approach_distance",
    "hausdorff_distance",
    "hausdorff_distance_batch",
    "dtw_distance",
    "lcss_similarity",
    "segment_trajectory_distance",
    "point_to_segment_distance_2d",
]


def spatiotemporal_distance(
    a: Trajectory,
    b: Trajectory,
    resolution: float | None = None,
    max_samples: int = 128,
) -> float:
    """Average synchronous Euclidean distance over the common lifespan.

    This is the "time-aware" distance of the paper: two trajectories are
    close only when they are at nearby locations *at the same time*.
    Returns ``inf`` when the lifespans do not overlap.
    """
    sync = synchronize(a, b, resolution=resolution, max_samples=max_samples)
    if sync is None:
        return math.inf
    _, pa, pb = sync
    return float(np.mean(np.hypot(pa[:, 0] - pb[:, 0], pa[:, 1] - pb[:, 1])))


def spatiotemporal_distance_matrix(
    frame: MODFrame,
    trajs: Sequence[Trajectory],
    max_samples: int = 128,
    candidates: npt.NDArray[np.bool_] | None = None,
) -> npt.NDArray[np.float64]:
    """:func:`spatiotemporal_distance` from each of ``trajs`` to every row of ``frame``.

    Returns a ``(len(trajs), len(frame))`` array.  A pair whose lifespans do
    not overlap with positive duration gets ``inf``, and so does a pair
    ``candidates`` (an optional boolean array of the same shape) leaves out:
    a caller that can bound a pair's distance from below skips it here.
    Equivalent to ``spatiotemporal_distance(frame row, traj,
    max_samples=max_samples)`` per pair, but each pair's
    ``max_samples``-point common time grid is built vectorised, every
    frame row is interpolated in one
    :meth:`~repro.hermes.frame.MODFrame.positions_at_batch` pass, and each
    trajectory's positions come from one ``np.interp`` call per axis.  Every
    cell's arithmetic depends on its pair only, so a pair's distance does not
    depend on which other pairs share the call.

    Each synchronous distance is ``sqrt(dx*dx + dy*dy)`` (no ``hypot``), so
    it can differ from the scalar function's in the last bit.  A squared
    distance that overflows (offsets beyond ``~1.3e154``) reads ``inf``, as
    does the pair's mean; within one MOD that
    :meth:`~repro.s2t.params.S2TParams.resolved` accepts, no offset is that
    large.
    """
    if max_samples < 1:
        raise ValueError("max_samples must be at least 1")
    out = np.full((len(trajs), len(frame)), math.inf)
    if len(frame) == 0 or len(trajs) == 0:
        return out
    starts = np.array([traj.ts[0] for traj in trajs], dtype=float)
    ends = np.array([traj.ts[-1] for traj in trajs], dtype=float)
    lo = np.maximum(frame.tmins[None, :], starts[:, None])
    hi = np.minimum(frame.tmaxs[None, :], ends[:, None])
    live = hi - lo > 0
    if candidates is not None:
        live &= candidates
    # Pairs in row-major order, so each trajectory's pairs are contiguous:
    # trajectory k owns pairs first[k]:first[k + 1].
    pairs = np.flatnonzero(live)
    if pairs.size == 0:
        return out
    owners, rows = np.divmod(pairs, len(frame))
    first = np.searchsorted(owners, np.arange(len(trajs) + 1)).tolist()
    lo, hi = lo.ravel()[pairs], hi.ravel()[pairs]

    n = max_samples
    steps = np.arange(n, dtype=float)
    dists = np.empty(pairs.size)
    # Chunk so one batch never materialises more than MAX_BATCH_CELLS cells.
    chunk = max(1, MAX_BATCH_CELLS // n)
    for start in range(0, pairs.size, chunk):
        stop = min(start + chunk, pairs.size)
        if n == 1:
            # np.linspace(lo, hi, 1) == [lo]
            grids = lo[start:stop, None]
        else:
            # Per-pair np.linspace(lo, hi, n): start + i * step, endpoint forced.
            step = (hi[start:stop] - lo[start:stop]) / (n - 1)
            grids = lo[start:stop, None] + steps[None, :] * step[:, None]
            grids[:, -1] = hi[start:stop]

        # mean(sqrt(dx*dx + dy*dy)), in place on the interpolated positions.
        dx, dy = frame.positions_at_batch(rows[start:stop], grids)
        for k in range(int(owners[start]), int(owners[stop - 1]) + 1):
            a, b = max(first[k], start) - start, min(first[k + 1], stop) - start
            if a < b:
                traj = trajs[k]
                cells = grids[a:b].ravel()
                dx[a:b] -= np.interp(cells, traj.ts, traj.xs).reshape(b - a, -1)
                dy[a:b] -= np.interp(cells, traj.ts, traj.ys).reshape(b - a, -1)
        dx *= dx
        dy *= dy
        dx += dy
        dists[start:stop] = np.sqrt(dx, out=dx).mean(axis=1)
    out.ravel()[pairs] = dists
    return out


def spatiotemporal_distance_batch(
    frame: MODFrame,
    traj: Trajectory,
    max_samples: int = 128,
) -> npt.NDArray[np.float64]:
    """:func:`spatiotemporal_distance` from ``traj`` to every row of ``frame``.

    Returns a ``(len(frame),)`` array; rows whose lifespan does not overlap
    ``traj``'s with positive duration get ``inf``.  This is the one-row case
    of :func:`spatiotemporal_distance_matrix`.
    """
    return spatiotemporal_distance_matrix(frame, [traj], max_samples)[0]


def closest_approach_distance(
    a: Trajectory,
    b: Trajectory,
    resolution: float | None = None,
    max_samples: int = 128,
) -> float:
    """Minimum synchronous Euclidean distance over the common lifespan."""
    sync = synchronize(a, b, resolution=resolution, max_samples=max_samples)
    if sync is None:
        return math.inf
    _, pa, pb = sync
    return float(np.min(np.hypot(pa[:, 0] - pb[:, 0], pa[:, 1] - pb[:, 1])))


def hausdorff_distance(a: Trajectory, b: Trajectory) -> float:
    """Symmetric spatial Hausdorff distance between the two point sets.

    Time is ignored; this is the distance TRACLUS-style spatial methods
    effectively optimise, and serves as a contrast to the time-aware
    distances above.
    """
    dx = a.xs[:, None] - b.xs[None, :]
    dy = a.ys[:, None] - b.ys[None, :]
    # Min/max over squared distances, one sqrt at the end: sqrt is monotone
    # and correctly rounded, so this is the min/max of the square roots.
    d_sq = dx * dx + dy * dy
    return math.sqrt(max(d_sq.min(axis=1).max(), d_sq.min(axis=0).max()))


def hausdorff_distance_batch(frame: MODFrame, traj: Trajectory) -> npt.NDArray[np.float64]:
    """:func:`hausdorff_distance` from every row of ``frame`` to ``traj``.

    Returns a ``(len(frame),)`` array equal to ``hausdorff_distance(frame
    row, traj)`` per row: the same squared point-to-point distances
    ``dx*dx + dy*dy``, only reduced per row with ``reduceat`` over the
    frame's sample column instead of one matrix per pair, then one ``sqrt``
    per row.  A squared distance that overflows reads ``inf``.

    A caller thresholding the result at ``d`` can skip the call when no row
    can pass: ``H(A, B) <= d`` puts every point of each set within ``d`` of
    the other set, hence each bounding box inside the other's
    ``d``-expansion — every bounding-box face of ``A`` lies within ``d`` of
    the matching face of ``B``.  Measure each face gap ``g`` as
    ``sqrt(g*g)``, this kernel's arithmetic, and the test stays implied by
    the computed distance even where a square underflows to 0.
    """
    out = np.empty(len(frame))
    if len(frame) == 0:
        return out
    # Chunk whole rows so one batch never materialises more than
    # MAX_BATCH_CELLS (sample, point) cells.
    longest = int(np.diff(frame.offsets).max())
    chunk = max(1, MAX_BATCH_CELLS // (longest * traj.num_points))
    for start in range(0, len(frame), chunk):
        stop = min(start + chunk, len(frame))
        lo, hi = frame.offsets[start], frame.offsets[stop]
        d_sq = frame.xs[lo:hi, None] - traj.xs[None, :]
        dy = frame.ys[lo:hi, None] - traj.ys[None, :]
        d_sq *= d_sq
        dy *= dy
        d_sq += dy
        starts = frame.offsets[start:stop] - lo
        forward = np.maximum.reduceat(d_sq.min(axis=1), starts)
        backward = np.minimum.reduceat(d_sq, starts, axis=0).max(axis=1)
        out[start:stop] = np.sqrt(np.maximum(forward, backward))
    return out


def dtw_distance(a: Trajectory, b: Trajectory, window: int | None = None) -> float:
    """Dynamic time warping distance on the planar footprints.

    Parameters
    ----------
    window:
        Optional Sakoe-Chiba band half-width (in samples); ``None`` means an
        unconstrained alignment.
    """
    pa = np.column_stack([a.xs, a.ys])
    pb = np.column_stack([b.xs, b.ys])
    n, m = len(pa), len(pb)
    if window is None:
        window = max(n, m)
    window = max(window, abs(n - m))
    inf = math.inf
    prev = np.full(m + 1, inf)
    prev[0] = 0.0
    for i in range(1, n + 1):
        cur = np.full(m + 1, inf)
        lo = max(1, i - window)
        hi = min(m, i + window)
        for j in range(lo, hi + 1):
            cost = math.hypot(pa[i - 1, 0] - pb[j - 1, 0], pa[i - 1, 1] - pb[j - 1, 1])
            cur[j] = cost + min(prev[j], cur[j - 1], prev[j - 1])
        prev = cur
    return float(prev[m])


def lcss_similarity(
    a: Trajectory, b: Trajectory, eps: float, delta: float | None = None
) -> float:
    """Longest-common-subsequence similarity in ``[0, 1]``.

    Two samples match when their planar distance is below ``eps`` and, if
    ``delta`` is given, their timestamps differ by less than ``delta``.
    """
    n, m = a.num_points, b.num_points
    # Vectorised match matrix: samples match when they are close in space
    # (and, optionally, in time).
    match = (
        np.hypot(a.xs[:, None] - b.xs[None, :], a.ys[:, None] - b.ys[None, :]) < eps
    )
    if delta is not None:
        match &= np.abs(a.ts[:, None] - b.ts[None, :]) < delta

    # Row-sweep DP.  Adjacent LCSS cells differ by at most 1, so the usual
    # recurrence dp[i,j] = max(dp[i-1,j], dp[i,j-1], dp[i-1,j-1] + m_ij)
    # collapses to a running maximum along the row: a matched cell's
    # candidate dp[i-1,j-1] + 1 dominates its left/top neighbours, and the
    # dp[i,j-1] term is exactly the prefix maximum.
    prev = np.zeros(m + 1, dtype=np.int64)
    cur = np.zeros(m + 1, dtype=np.int64)
    for i in range(n):
        cand = np.where(match[i], prev[:-1] + 1, 0)
        np.maximum.accumulate(np.maximum(prev[1:], cand), out=cur[1:])
        prev, cur = cur, prev
    return float(prev[m]) / float(min(n, m))


def point_to_segment_distance_2d(p: PointST, seg: SegmentST) -> float:
    """Planar distance from a point to a 2D segment."""
    ax, ay = seg.start.x, seg.start.y
    bx, by = seg.end.x, seg.end.y
    px, py = p.x, p.y
    dx, dy = bx - ax, by - ay
    denom = dx * dx + dy * dy
    if denom <= 0:
        return math.hypot(px - ax, py - ay)
    u = ((px - ax) * dx + (py - ay) * dy) / denom
    u = min(max(u, 0.0), 1.0)
    return math.hypot(px - (ax + u * dx), py - (ay + u * dy))


def segment_trajectory_distance(
    seg: SegmentST,
    other: Trajectory,
    n_samples: int = 8,
) -> float:
    """Synchronous distance between a 3D segment and another trajectory.

    The segment's time span is sampled at ``n_samples`` instants; at each
    instant the segment position and the other trajectory's position are
    compared.  The mean of those distances is returned.  Returns ``inf``
    when the other trajectory is not alive during the segment's span.
    """
    period = seg.period.intersection(other.period)
    if period is None or (seg.duration > 0 and period.duration <= 0):
        return math.inf
    ts = common_time_grid(period, resolution=None, max_samples=n_samples)
    other_pos = other.positions_at(ts)
    # Vectorised segment interpolation (SegmentST.point_at for the whole
    # grid at once); ts lies inside the segment's period, so no clamping.
    if seg.duration <= 1e-12:  # SegmentST.point_at's degenerate-segment guard
        sx = np.full(len(ts), seg.start.x)
        sy = np.full(len(ts), seg.start.y)
    else:
        frac = (ts - seg.start.t) / seg.duration
        sx = seg.start.x + frac * (seg.end.x - seg.start.x)
        sy = seg.start.y + frac * (seg.end.y - seg.start.y)
    return float(np.mean(np.hypot(sx - other_pos[:, 0], sy - other_pos[:, 1])))
