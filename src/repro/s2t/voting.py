"""The voting phase of NaTS.

Every segment of every trajectory receives a vote from each other trajectory
that is alive during the segment's time span.  The vote decays with the
synchronous distance ``d`` between the two objects:

* Gaussian kernel:    ``exp(-d^2 / (2 sigma^2))``
* triangular kernel:  ``max(0, 1 - d / (3 sigma))``

The total vote of a segment is the sum over the other trajectories and lies
in ``[0, N-1]``; its physical meaning is "how many objects co-move with this
segment", exactly as the paper describes.

Two execution strategies are provided, selected by
``S2TParams.voting_strategy``:

* ``"dense"`` — the all-pairs reference computation: a Python loop over
  (target, voter) pairs, each pair synchronised with a fresh ``np.interp``
  call.  Exact but slow; the batched engine is validated against it.
* ``"batched"`` (default) — the columnar engine: a
  :class:`~repro.hermes.frame.MODFrame` is built once per MOD, candidate
  voters are pruned by a 3D R-tree over trajectory bounding boxes (the
  in-DBMS access path of the paper) *plus* a sweep-line temporal prefilter
  (an :class:`~repro.index.interval.IntervalIndex` over trajectory
  lifespans), and all surviving voters of a target are interpolated onto the
  target's time grid in one :meth:`~repro.hermes.frame.MODFrame.positions_at_batch`
  pass, with the kernel reduced across voters by a single NumPy summation.
  The pruning margin is the *kernel support radius* (``3 sigma`` exactly for
  the triangular kernel, ``sigma * sqrt(2 ln 1e12) ≈ 7.43 sigma`` for the
  Gaussian), so batched votes match the dense reference within ``1e-8``
  while replacing the ``O(pairs)`` Python loop with ``O(targets)`` batched
  kernel calls.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.hermes.frame import MAX_BATCH_CELLS, MODFrame
from repro.hermes.mod import MOD
from repro.hermes.trajectory import Trajectory
from repro.index.interval import IntervalIndex
from repro.index.rtree3d import RTree3D
from repro.s2t.params import S2TParams

__all__ = [
    "VotingProfile",
    "compute_voting",
    "build_trajectory_index",
    "kernel_support_radius",
]

# Per-voter vote magnitude below which a Gaussian contribution is treated as
# zero by the batched pruning margin; the summed error over any realistic
# number of pruned voters stays well below the 1e-8 equivalence budget.
_GAUSSIAN_SUPPORT_TOL = 1e-12


@dataclass
class VotingProfile:
    """Per-segment votes of every trajectory in a MOD."""

    votes: dict[tuple[str, str], np.ndarray] = field(default_factory=dict)
    pairs_evaluated: int = 0
    pairs_pruned: int = 0
    elapsed_s: float = 0.0
    strategy: str = "dense"

    def segment_votes(self, key: tuple[str, str]) -> np.ndarray:
        """Votes of trajectory ``key``; one value per consecutive-sample segment."""
        return self.votes[key]

    def point_votes(self, key: tuple[str, str]) -> np.ndarray:
        """Votes mapped back to samples (segment votes averaged at interior samples)."""
        seg = self.votes[key]
        n = len(seg) + 1
        out = np.empty(n)
        out[0] = seg[0]
        out[-1] = seg[-1]
        if n > 2:
            out[1:-1] = (seg[:-1] + seg[1:]) / 2.0
        return out

    def total_votes(self, key: tuple[str, str]) -> float:
        """Total voting mass of a trajectory."""
        return float(np.sum(self.votes[key]))


def kernel_support_radius(sigma: float, kernel: str) -> float:
    """Distance beyond which a voter's per-sample vote is negligible.

    The triangular kernel is exactly zero beyond ``3 sigma``.  The Gaussian
    never reaches zero, so its support radius is where the vote drops below
    ``_GAUSSIAN_SUPPORT_TOL`` — pruning at this margin keeps the batched
    strategy within the 1e-8 dense-equivalence budget.
    """
    if kernel == "triangular":
        return 3.0 * sigma
    return sigma * math.sqrt(2.0 * math.log(1.0 / _GAUSSIAN_SUPPORT_TOL))


def build_trajectory_index(mod: MOD, spatial_margin: float) -> RTree3D[tuple[str, str]]:
    """Build a 3D R-tree over trajectory bounding boxes.

    Boxes are expanded by ``spatial_margin`` so that a range probe with a
    trajectory's own (unexpanded) box finds every trajectory that could cast
    a non-negligible vote.
    """
    tree: RTree3D[tuple[str, str]] = RTree3D(max_entries=16)
    for traj in mod:
        tree.insert(traj.bbox.expand(spatial_margin, 0.0), traj.key)
    return tree


def _pairwise_votes(
    voter: Trajectory,
    target: Trajectory,
    sigma: float,
    kernel: str,
    max_samples: int,
) -> np.ndarray | None:
    """Votes cast by ``voter`` onto the samples of ``target``.

    Returns an array aligned with ``target``'s samples (zero outside the
    common lifespan), or ``None`` when the lifespans do not overlap.
    """
    common = target.period.intersection(voter.period)
    if common is None or common.duration <= 0:
        return None
    mask = (target.ts >= common.tmin) & (target.ts <= common.tmax)
    if not np.any(mask):
        return None
    ts = target.ts[mask]
    if len(ts) > max_samples:
        sel = np.linspace(0, len(ts) - 1, max_samples).astype(int)
        mask_idx = np.flatnonzero(mask)[sel]
    else:
        mask_idx = np.flatnonzero(mask)
    ts = target.ts[mask_idx]
    voter_pos = voter.positions_at(ts)
    dx = target.xs[mask_idx] - voter_pos[:, 0]
    dy = target.ys[mask_idx] - voter_pos[:, 1]
    dist = np.hypot(dx, dy)
    if kernel == "gaussian":
        vals = np.exp(-(dist**2) / (2.0 * sigma * sigma))
    else:  # triangular
        vals = np.clip(1.0 - dist / (3.0 * sigma), 0.0, None)
    out = np.zeros(target.num_points)
    out[mask_idx] = vals
    return out


# -- dense strategy (the reference) ------------------------------------------------


def _compute_voting_dense(mod: MOD, params: S2TParams, profile: VotingProfile) -> None:
    """The all-pairs loop every equivalence pin compares against."""
    sigma = params.sigma
    assert sigma is not None
    trajectories = mod.trajectories()

    evaluated = 0
    for target in trajectories:
        point_votes = np.zeros(target.num_points)
        for voter in trajectories:
            if voter.key == target.key:
                continue
            votes = _pairwise_votes(
                voter, target, sigma, params.voting_kernel, params.voting_samples
            )
            evaluated += 1
            if votes is not None:
                point_votes += votes
        # Segment votes: mean of the two endpoint sample votes.
        seg_votes = (point_votes[:-1] + point_votes[1:]) / 2.0
        profile.votes[target.key] = seg_votes

    profile.pairs_evaluated = evaluated


# -- batched strategy --------------------------------------------------------------


def _batched_point_votes(
    frame: MODFrame,
    target_row: int,
    voter_rows: np.ndarray,
    sigma: float,
    kernel: str,
    max_samples: int,
) -> np.ndarray:
    """Summed votes of ``voter_rows`` onto every sample of ``target_row``.

    Numerically equivalent to accumulating :func:`_pairwise_votes` over the
    same voters (including its per-pair sub-sampling rule), but computed as
    one batched interpolation plus one kernel reduction.
    """
    ts = frame.ts_of(target_row)
    txs = frame.xs_of(target_row)
    tys = frame.ys_of(target_row)
    n_points = len(ts)
    point_votes = np.zeros(n_points)
    if voter_rows.size == 0:
        return point_votes

    # Positive-duration lifespan overlap (the dense path's ``common`` check).
    lo, hi = frame.lifespan_overlap(float(ts[0]), float(ts[-1]))
    alive = (hi - lo)[voter_rows] > 0
    voter_rows = voter_rows[alive]
    if voter_rows.size == 0:
        return point_votes

    inv_two_sigma_sq = 1.0 / (2.0 * sigma * sigma)
    inv_three_sigma = 1.0 / (3.0 * sigma)

    # Chunk so a single batch never materialises more than MAX_BATCH_CELLS
    # (voter, instant) cells.
    chunk = max(1, MAX_BATCH_CELLS // max(n_points, 1))
    for start in range(0, voter_rows.size, chunk):
        rows = voter_rows[start : start + chunk]
        x_v, y_v = frame.positions_at_batch(rows, ts)

        # Which target samples fall inside each voter's lifespan.
        mask = (ts[None, :] >= frame.tmins[rows, None]) & (
            ts[None, :] <= frame.tmaxs[rows, None]
        )
        counts = mask.sum(axis=1)
        # Replicate the dense path's per-pair sub-sampling: voters alive for
        # more than ``max_samples`` target samples only vote at an evenly
        # spaced subset.
        for i in np.flatnonzero(counts > max_samples):
            inside = np.flatnonzero(mask[i])
            sel = np.linspace(0, len(inside) - 1, max_samples).astype(int)
            row_mask = np.zeros(n_points, dtype=bool)
            row_mask[inside[sel]] = True
            mask[i] = row_mask

        dist = np.hypot(txs[None, :] - x_v, tys[None, :] - y_v)
        if kernel == "gaussian":
            vals = np.exp(-(dist**2) * inv_two_sigma_sq)
        else:  # triangular
            vals = np.clip(1.0 - dist * inv_three_sigma, 0.0, None)
        vals *= mask
        point_votes += vals.sum(axis=0)
    return point_votes


# Below this MOD cardinality, building the (pure-Python) R-tree costs more
# than it saves; the batched strategy then prunes with an equivalent
# vectorised scan over the frame's bounding-box table instead.  A
# caller-supplied index is always used.
_RTREE_BUILD_THRESHOLD = 512


def _compute_voting_batched(
    mod: MOD,
    params: S2TParams,
    profile: VotingProfile,
    index: RTree3D[tuple[str, str]] | None,
    frame: MODFrame | None = None,
) -> None:
    """The columnar engine: R-tree + sweep-line prefilter, batched kernels."""
    sigma = params.sigma
    assert sigma is not None
    if frame is None:
        frame = MODFrame.from_mod(mod)
    n = len(frame)
    margin = kernel_support_radius(sigma, params.voting_kernel)

    if index is None and n >= _RTREE_BUILD_THRESHOLD:
        index = build_trajectory_index(mod, spatial_margin=margin)
    # Sweep-line temporal prefilter: one bulk-loaded interval index over the
    # lifespan table answers "who is alive during the target's span?" without
    # touching the R-tree's spatial margins.
    lifespans = IntervalIndex.bulk_load(
        [(frame.period_of(row), row) for row in range(n)]
    )

    total_pairs = 0
    evaluated = 0
    for target_row in range(n):
        key = frame.keys[target_row]
        total_pairs += n - 1

        # Stage 1 — sweep-line temporal prefilter: rows alive during the
        # target's lifespan (closed bounds, like the R-tree's t-dimension).
        alive = np.fromiter(
            (row for _p, row in lifespans.overlapping(frame.period_of(target_row))),
            dtype=np.intp,
        )
        # Stage 2 — spatial pruning of the temporal survivors.
        if index is not None:
            spatial = {
                row
                for k in index.range_search(frame.bbox_of(target_row))
                if (row := frame.maybe_row_of(k)) is not None
            }
            candidates = alive[np.fromiter(
                (row in spatial for row in alive), dtype=bool, count=alive.size
            )]
        else:
            # Columnar equivalent of probing the R-tree: every surviving row
            # whose margin-expanded box intersects the target's box in x/y
            # (closed bounds, the R-tree's consistency predicate; time was
            # already handled by the prefilter).
            hit = (
                (frame.xmins[alive] - margin <= frame.xmaxs[target_row])
                & (frame.xmaxs[alive] + margin >= frame.xmins[target_row])
                & (frame.ymins[alive] - margin <= frame.ymaxs[target_row])
                & (frame.ymaxs[alive] + margin >= frame.ymins[target_row])
            )
            candidates = alive[hit]
        # Deterministic (row-order) summation, target excluded.
        voter_rows = np.sort(candidates[candidates != target_row])
        evaluated += voter_rows.size

        point_votes = _batched_point_votes(
            frame,
            target_row,
            voter_rows,
            sigma,
            params.voting_kernel,
            params.voting_samples,
        )
        profile.votes[key] = (point_votes[:-1] + point_votes[1:]) / 2.0

    profile.pairs_evaluated = evaluated
    profile.pairs_pruned = total_pairs - evaluated


# -- public entry point --------------------------------------------------------------


def compute_voting(
    mod: MOD,
    params: S2TParams,
    index: RTree3D[tuple[str, str]] | None = None,
    frame: MODFrame | None = None,
) -> VotingProfile:
    """Run the voting phase over the whole MOD.

    Parameters
    ----------
    mod:
        The MOD to vote over.
    params:
        Resolved S2T parameters (``sigma`` must not be ``None``).  The
        execution strategy is ``params.voting_strategy`` (``"dense"`` or
        ``"batched"``).
    index:
        Optional pre-built trajectory R-tree for the batched strategy; when
        none is given, large MODs build one on the fly with the kernel
        support radius as margin.  A caller-supplied index keeps its own
        margin, which then governs the pruning accuracy.
    frame:
        Optional prebuilt columnar snapshot of ``mod`` (the engine's frame
        catalog passes its cached frame here); the batched strategy then
        skips rebuilding it.
    """
    start = time.perf_counter()
    params = params.resolved(mod)
    profile = VotingProfile(strategy=params.voting_strategy)

    if params.voting_strategy == "batched":
        _compute_voting_batched(mod, params, profile, index, frame=frame)
    else:  # dense
        _compute_voting_dense(mod, params, profile)

    profile.elapsed_s = time.perf_counter() - start
    return profile
