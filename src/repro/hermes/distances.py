"""Spatiotemporal distance functions.

Hermes exposes a family of trajectory distance operands; the subset
implemented here is what the clustering modules and the baselines need:

* :func:`spatiotemporal_distance` -- time-synchronised average Euclidean
  distance over the common lifespan (the scalar reference of S2T sampling
  and greedy clustering; used by T-OPTICS),
* :func:`spatiotemporal_distance_matrix` -- the same distance from each of
  many trajectories to *every* row of a
  :class:`~repro.hermes.frame.MODFrame` in a single vectorised pass (the
  ReTraTree's entry assignment, one pass per sub-chunk, and QuT's
  co-movement test, one pass per pair of sub-chunks), and
  :func:`spatiotemporal_distance_batch`, its one-trajectory case (SaCO's
  distance rows),
* :func:`hausdorff_distance` -- spatial Hausdorff distance (time-agnostic,
  used by TRACLUS-style comparisons),
* :func:`hausdorff_distance_pairs` -- the same distance for chosen pairs of
  rows of two frames (QuT's "same spatial path" merge test between two
  sub-chunks' representative frames).

All functions return ``math.inf`` when the inputs share no common time span
and the distance is inherently time-aware.

The batched kernels and :func:`hausdorff_distance` work on squared
distances ``dx*dx + dy*dy`` and take a square root only where a distance is
returned; :func:`spatiotemporal_distance` uses ``hypot``.  The S2T voting kernel,
``exp(-(dx^2 + dy^2) / (2 sigma^2))`` in :mod:`repro.s2t.voting`, takes no
square root at all.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np
import numpy.typing as npt

from repro.hermes.frame import MAX_BATCH_CELLS, MODFrame
from repro.hermes.interpolation import synchronize
from repro.hermes.trajectory import Trajectory

__all__ = [
    "spatiotemporal_distance",
    "spatiotemporal_distance_batch",
    "spatiotemporal_distance_matrix",
    "hausdorff_distance",
    "hausdorff_distance_pairs",
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


def hausdorff_distance_pairs(
    a: MODFrame,
    b: MODFrame,
    rows_a: npt.NDArray[np.intp],
    rows_b: npt.NDArray[np.intp],
) -> npt.NDArray[np.float64]:
    """:func:`hausdorff_distance` of each pair ``(a row rows_a[k], b row rows_b[k])``.

    Returns a ``(len(rows_a),)`` array equal to ``hausdorff_distance`` per
    pair, bit for bit: the same squared point-to-point distances
    ``dx*dx + dy*dy``, for a chunk of pairs at once as one (pair, ``a``
    point, ``b`` point) array in which a shorter row repeats its last point
    — a repeated point moves neither a minimum nor a maximum — reduced to
    the minimum over ``b``'s points then the maximum over ``a``'s, and the
    same the other way round, then one ``sqrt`` per pair.  Min and max are
    exact, so the reduction order cannot move a bit.  A squared distance
    that overflows reads ``inf``.  Every row must hold at least one sample.

    A caller thresholding the result at ``d`` can skip a pair that cannot
    pass: ``H(A, B) <= d`` puts every point of each set within ``d`` of
    the other set, hence each bounding box inside the other's
    ``d``-expansion — every bounding-box face of ``A`` lies within ``d`` of
    the matching face of ``B``.  Measure each face gap ``g`` as
    ``sqrt(g*g)``, this kernel's arithmetic, and the test stays implied by
    the computed distance even where a square underflows to 0.
    """
    out = np.empty(len(rows_a))
    if len(rows_a) == 0:
        return out
    firsts_a, firsts_b = a.offsets[rows_a], b.offsets[rows_b]
    lasts_a, lasts_b = a.offsets[rows_a + 1] - 1, b.offsets[rows_b + 1] - 1
    width_a = int((lasts_a - firsts_a).max()) + 1
    width_b = int((lasts_b - firsts_b).max()) + 1
    # Chunk so one batch never materialises more than MAX_BATCH_CELLS cells.
    chunk = max(1, MAX_BATCH_CELLS // (width_a * width_b))
    for start in range(0, len(rows_a), chunk):
        stop = min(start + chunk, len(rows_a))
        ia = np.minimum(firsts_a[start:stop, None] + np.arange(width_a), lasts_a[start:stop, None])
        ib = np.minimum(firsts_b[start:stop, None] + np.arange(width_b), lasts_b[start:stop, None])
        d_sq = a.xs[ia][:, :, None] - b.xs[ib][:, None, :]
        dy = a.ys[ia][:, :, None] - b.ys[ib][:, None, :]
        d_sq *= d_sq
        dy *= dy
        d_sq += dy
        forward = d_sq.min(axis=2).max(axis=1)
        backward = d_sq.min(axis=1).max(axis=1)
        out[start:stop] = np.sqrt(np.maximum(forward, backward))
    return out
