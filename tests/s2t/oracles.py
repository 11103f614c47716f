"""The references the S2T phases of :mod:`repro.s2t` are pinned to.

Voting (:mod:`repro.s2t.voting`) is pinned to two of them:

* :func:`dense_voting` — the all-pairs loop: per (target, voter) pair, one
  ``np.interp`` synchronisation and one kernel evaluation.  It shares no
  code with the sweep (no frame, no pruning margin, and its distance is
  ``np.hypot`` where the sweep reads ``dx*dx + dy*dy``), so it is the
  independent reference: the sweep must match it within ``1e-8``
  (``tests/s2t/test_voting.py``, ``tests/integration/test_property_based.py``).
* :func:`oracle_voting` — the per-target batched kernel the sweep replaced:
  per target, an ``IntervalIndex`` sweep-line prefilter plus an R-tree
  (built on the fly from ``_RTREE_BUILD_THRESHOLD`` trajectories) or a
  columnar bounding-box scan pick the voters, and one
  :meth:`~repro.hermes.frame.MODFrame.positions_at_batch` call interpolates
  them all onto the target's samples.  Its kernel reads the squared distance
  ``dx*dx + dy*dy``, the sweep's expression.  The sweep must reproduce its votes
  bit for bit and its pair counts exactly (``tests/s2t/test_voting_sweep.py``).

Segmentation (:mod:`repro.s2t.segmentation`) is pinned to the per-trajectory
path it replaced, kept verbatim: :func:`oracle_dp_segmentation` (one DP loop
per voting signal) and :func:`oracle_segment_mod` (one
:meth:`~repro.hermes.trajectory.Trajectory.split_at_indices` per trajectory,
one validated ``SubTrajectory`` per piece).  The batched DP and the gathered
sub-trajectory frame must give the same cuts, bit-equal masses and
byte-equal columns (``tests/s2t/test_segmentation_batch.py``).
"""

from __future__ import annotations

import time
from collections.abc import Iterable

import numpy as np

from repro.hermes.frame import MAX_BATCH_CELLS, MODFrame
from repro.hermes.mod import MOD
from repro.hermes.trajectory import SubTrajectory, Trajectory
from repro.hermes.types import BoxST
from repro.index.interval import IntervalIndex
from repro.index.rtree3d import RTree3D
from repro.s2t.params import S2TParams
from repro.s2t.segmentation import greedy_segmentation
from repro.s2t.voting import VotingProfile, kernel_support_radius

__all__ = [
    "dense_voting",
    "oracle_voting",
    "build_trajectory_index",
    "oracle_dp_segmentation",
    "oracle_segment_mod",
    "oracle_segment_frame",
]


def _pairwise_votes(
    voter: Trajectory,
    target: Trajectory,
    sigma: float,
    kernel: str,
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
            votes = _pairwise_votes(voter, target, sigma, params.voting_kernel)
            evaluated += 1
            if votes is not None:
                point_votes += votes
        # Segment votes: mean of the two endpoint sample votes.
        seg_votes = (point_votes[:-1] + point_votes[1:]) / 2.0
        profile.votes[target.key] = seg_votes

    profile.pairs_evaluated = evaluated


def dense_voting(mod: MOD, params: S2TParams) -> VotingProfile:
    """``compute_voting`` as the all-pairs loop (nothing pruned)."""
    start = time.perf_counter()
    profile = VotingProfile()
    _compute_voting_dense(mod, params.resolved(mod), profile)
    profile.elapsed_s = time.perf_counter() - start
    return profile


def build_trajectory_index(mod: MOD, spatial_margin: float) -> RTree3D[tuple[str, str]]:
    """Build a 3D R-tree over trajectory bounding boxes.

    Boxes are expanded by ``spatial_margin`` so that a range probe with a
    trajectory's own (unexpanded) box finds every trajectory that could cast
    a non-negligible vote.
    """
    tree: RTree3D[tuple[str, str]] = RTree3D(max_entries=16)
    for traj in mod:
        box = traj.bbox
        grown = BoxST(
            box.xmin - spatial_margin,
            box.ymin - spatial_margin,
            box.tmin,
            box.xmax + spatial_margin,
            box.ymax + spatial_margin,
            box.tmax,
        )
        tree.insert(grown, traj.key)
    return tree


def _batched_point_votes(
    frame: MODFrame,
    target_row: int,
    voter_rows: np.ndarray,
    sigma: float,
    kernel: str,
) -> np.ndarray:
    """Summed votes of ``voter_rows`` onto every sample of ``target_row``.

    Numerically equivalent to accumulating :func:`_pairwise_votes` over the
    same voters, but computed as one batched interpolation plus one kernel
    reduction.
    """
    block = slice(frame.offsets[target_row], frame.offsets[target_row + 1])
    ts, txs, tys = frame.ts[block], frame.xs[block], frame.ys[block]
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

        dx = txs[None, :] - x_v
        dy = tys[None, :] - y_v
        dist_sq = dx * dx + dy * dy
        if kernel == "gaussian":
            vals = np.exp(-dist_sq * inv_two_sigma_sq)
        else:  # triangular
            vals = np.clip(1.0 - np.sqrt(dist_sq) * inv_three_sigma, 0.0, None)
        vals *= mask
        point_votes += vals.sum(axis=0)
    return point_votes


# Below this MOD cardinality, building the (pure-Python) R-tree costs more
# than it saves; the kernel then prunes with an equivalent
# vectorised scan over the frame's bounding-box table instead.
_RTREE_BUILD_THRESHOLD = 512


def _compute_voting_batched(
    mod: MOD,
    params: S2TParams,
    profile: VotingProfile,
    frame: MODFrame | None = None,
) -> None:
    """The columnar engine: R-tree + sweep-line prefilter, batched kernels."""
    sigma = params.sigma
    assert sigma is not None
    if frame is None:
        frame = MODFrame.from_mod(mod)
    n = len(frame)
    margin = kernel_support_radius(sigma, params.voting_kernel)

    index = None
    if n >= _RTREE_BUILD_THRESHOLD:
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
        )
        profile.votes[key] = (point_votes[:-1] + point_votes[1:]) / 2.0

    profile.pairs_evaluated = evaluated
    profile.pairs_pruned = total_pairs - evaluated


def oracle_voting(
    mod: MOD | MODFrame, params: S2TParams, frame: MODFrame | None = None
) -> VotingProfile:
    """``compute_voting`` with the per-target kernel (``mod`` may be the frame a fit passes)."""
    if isinstance(mod, MODFrame):
        mod, frame = mod.to_mod(), mod
    start = time.perf_counter()
    params = params.resolved(mod)
    profile = VotingProfile()
    _compute_voting_batched(mod, params, profile, frame=frame)
    profile.elapsed_s = time.perf_counter() - start
    return profile


def oracle_dp_segmentation(
    votes: np.ndarray, penalty: float, min_len: int
) -> list[int]:
    """Optimal 1D segmentation of the voting signal.

    Minimises ``sum_over_segments(within-segment sum of squared deviation)
    + penalty_cost * number_of_segments`` with segments at least ``min_len``
    votes long.  ``penalty`` is expressed as a fraction of the signal's total
    variance so that it is scale-free.

    Returns the cut points as indices into the *sample* axis (a cut at ``i``
    means a new sub-trajectory starts at sample ``i``).
    """
    n = len(votes)
    if n <= min_len:
        return []
    # A (numerically) constant signal carries no segmentation information:
    # without this guard the variance-proportional penalty collapses to ~0
    # and the DP would place cuts based on floating-point dust.
    dynamic_range = float(votes.max() - votes.min())
    if dynamic_range <= 1e-9 * (float(np.abs(votes).max()) + 1.0):
        return []
    total_ss = float(np.sum((votes - votes.mean()) ** 2))
    penalty_cost = penalty * total_ss if total_ss > 0 else penalty

    # Prefix sums for O(1) within-segment cost.
    prefix = np.concatenate([[0.0], np.cumsum(votes)])
    prefix_sq = np.concatenate([[0.0], np.cumsum(votes**2)])
    i_index = np.arange(n + 1, dtype=float)

    best = np.full(n + 1, np.inf)
    best[0] = 0.0
    back = np.zeros(n + 1, dtype=int)
    for j in range(min_len, n + 1):
        # All candidate segment starts i in [0, j - min_len] at once: the
        # within-segment cost of votes[i:j] is prefix_sq[j] - prefix_sq[i]
        # minus (prefix[j] - prefix[i])^2 / (j - i), one broadcast over the
        # prefix-sum arrays.  Unreachable starts (best[i] = inf) stay inf
        # and can never win the argmin (i = 0 is always reachable).
        i_hi = j - min_len + 1
        s = prefix[j] - prefix[:i_hi]
        sq = prefix_sq[j] - prefix_sq[:i_hi]
        costs = best[:i_hi] + (sq - s * s / (j - i_index[:i_hi])) + penalty_cost
        i = int(np.argmin(costs))
        if costs[i] < best[j]:
            best[j] = costs[i]
            back[j] = i
    # Recover the cut points.
    cuts = []
    j = n
    while j > 0:
        i = int(back[j])
        if i > 0:
            cuts.append(i)
        j = i
    cuts.reverse()
    return cuts


def oracle_segment_by_voting(
    traj: Trajectory, votes: np.ndarray, params: S2TParams
) -> list[SubTrajectory]:
    """Split one trajectory into sub-trajectories using its voting signal."""
    if params.segmentation_method == "dp":
        cuts = oracle_dp_segmentation(
            votes, penalty=params.segmentation_penalty, min_len=params.min_segment_samples
        )
    else:
        # The greedy threshold reuses the DP penalty fraction as "drift" size:
        # larger penalty -> fewer segments in both methods.
        cuts = greedy_segmentation(
            votes,
            threshold_fraction=max(params.segmentation_penalty * 4.0, 0.1),
            min_len=params.min_segment_samples,
        )
    return traj.split_at_indices(cuts)


def oracle_segment_mod(
    mod: MOD,
    profile: VotingProfile,
    params: S2TParams,
    frame: MODFrame | None = None,
) -> tuple[list[SubTrajectory], dict[tuple[str, str, int, int], float], float]:
    """Segment every trajectory of a MOD.

    Returns ``(subtrajectories, voting_mass, elapsed_seconds)`` where
    ``voting_mass`` maps each sub-trajectory key to the mean vote of its
    segments — the representativeness score consumed by the sampling phase.

    When ``frame`` (a columnar snapshot of ``mod``) is given, trajectories
    are read straight off the frame's columns (zero-copy views) in row
    order — the frame-native path the pipeline uses so the per-``fit`` frame
    is built once and shared across phases.
    """
    start = time.perf_counter()
    subtrajectories: list[SubTrajectory] = []
    voting_mass: dict[tuple[str, str, int, int], float] = {}
    trajectories: Iterable[Trajectory]
    if frame is not None:
        trajectories = (frame.trajectory_of(row) for row in range(len(frame)))
    else:
        trajectories = mod
    for traj in trajectories:
        votes = profile.segment_votes(traj.key)
        subs = oracle_segment_by_voting(traj, votes, params)
        for sub in subs:
            seg_slice = votes[sub.start_idx : sub.end_idx]
            mass = float(np.mean(seg_slice)) if len(seg_slice) else 0.0
            voting_mass[sub.key] = mass
            subtrajectories.append(sub)
    return subtrajectories, voting_mass, time.perf_counter() - start


def oracle_segment_frame(
    frame: MODFrame, profile: VotingProfile, params: S2TParams
) -> tuple[MODFrame, list[SubTrajectory], np.ndarray]:
    """:func:`~repro.s2t.segmentation.segment_frame`'s contract, the old way.

    :func:`oracle_segment_mod` on the frame, then the sub-trajectory frame
    re-concatenated from the pieces (``MODFrame.from_trajectories``) and the
    masses read back in piece order — what ``S2TClustering.fit`` did before
    segmentation gathered the frame itself.
    """
    subs, mass, _elapsed = oracle_segment_mod(frame.to_mod(), profile, params, frame=frame)
    sub_frame = MODFrame.from_trajectories(sub.traj for sub in subs)
    return sub_frame, subs, np.array([mass[sub.key] for sub in subs], dtype=float)
