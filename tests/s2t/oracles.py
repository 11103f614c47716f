"""The per-target batched voting kernel, kept as the oracle of the sweep.

This is the batched strategy of :mod:`repro.s2t.voting` as it ran before the
voter-major sweep replaced it, moved here verbatim: per target, an
``IntervalIndex`` sweep-line prefilter plus an R-tree (built on the fly from
``_RTREE_BUILD_THRESHOLD`` trajectories) or a columnar bounding-box scan pick
the voters, and one :meth:`~repro.hermes.frame.MODFrame.positions_at_batch`
call interpolates them all onto the target's samples.  The sweep must
reproduce its votes bit for bit and its pair counts exactly
(``tests/s2t/test_voting_sweep.py``).
"""

from __future__ import annotations

import time

import numpy as np

from repro.hermes.frame import MAX_BATCH_CELLS, MODFrame
from repro.hermes.mod import MOD
from repro.index.interval import IntervalIndex
from repro.index.rtree3d import RTree3D
from repro.s2t.params import S2TParams
from repro.s2t.voting import VotingProfile, kernel_support_radius

__all__ = ["oracle_voting", "build_trajectory_index"]


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
            params.voting_samples,
        )
        profile.votes[key] = (point_votes[:-1] + point_votes[1:]) / 2.0

    profile.pairs_evaluated = evaluated
    profile.pairs_pruned = total_pairs - evaluated


def oracle_voting(
    mod: MOD, params: S2TParams, frame: MODFrame | None = None
) -> VotingProfile:
    """``compute_voting`` with the per-target kernel (batched strategy only)."""
    start = time.perf_counter()
    params = params.resolved(mod)
    assert params.voting_strategy == "batched"
    profile = VotingProfile(strategy=params.voting_strategy)
    _compute_voting_batched(mod, params, profile, frame=frame)
    profile.elapsed_s = time.perf_counter() - start
    return profile
