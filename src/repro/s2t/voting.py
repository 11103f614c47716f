"""The voting phase of NaTS.

Every segment of every trajectory receives a vote from each other trajectory
that is alive during the segment's time span.  The vote decays with the
synchronous distance ``d`` between the two objects:

* Gaussian kernel:    ``exp(-d^2 / (2 sigma^2))``
* triangular kernel:  ``max(0, 1 - d / (3 sigma))``

The total vote of a segment is the sum over the other trajectories and lies
in ``[0, N-1]``; its physical meaning is "how many objects co-move with this
segment", exactly as the paper describes.

The phase runs as a *voter-major sweep* over the dataset's
:class:`~repro.hermes.frame.MODFrame`:

1. Once per fit, the frame's sample column is stable-sorted by ``t``: every
   sample of every trajectory in time order, with its owner row and its
   ``x`` / ``y``.  A voter's lifespan is then one contiguous slab of that
   column (two ``searchsorted`` calls).
2. Per voter, in ascending row order, its candidate targets are one
   vectorised ``O(n)`` test over the frame's lifespan and bounding-box
   tables: a lifespan overlap of positive duration, ``x`` / ``y`` boxes
   within the *kernel support radius* (``3 sigma`` exactly for the
   triangular kernel, ``sigma * sqrt(2 ln 1e12) ≈ 7.43 sigma`` for the
   Gaussian) and not the voter itself.  This box test is the one candidate
   test: it selects exactly the pairs an R-tree over the margin-expanded
   trajectory boxes would return, without building one.
3. The voter is interpolated at every instant of its slab (the bracket from
   one ``searchsorted`` of its knots into the sorted slab; the lerp and clip
   of :meth:`~repro.hermes.frame.MODFrame.positions_at_batch`, same
   arithmetic), the kernel is evaluated against the slab's own positions,
   cells whose owner is not a candidate are multiplied by zero, the per-pair
   ``voting_samples`` sub-sampling rule thins any target with more instants
   than that, and the values are added into one accumulator with
   ``acc[lo:hi] += vals``.
4. The accumulator is un-permuted once and each segment's vote is the mean
   of its two endpoint votes.

**Why it is exact.**  Each target instant receives its voters' values in
ascending voter order — the summation order of the per-target kernel this
sweep replaced (``vals.sum(axis=0)`` over the sorted voter rows of one
target) — and a masked cell adds an exact ``0.0``.  The votes are therefore
bit-identical to that kernel, which is kept as the test oracle in
``tests/s2t/oracles.py``.  They also match the all-pairs reference kept
there (``dense_voting``: one ``np.interp`` per (target, voter) pair) within
``1e-8``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.hermes.frame import MODFrame
from repro.hermes.mod import MOD
from repro.s2t.params import S2TParams

__all__ = ["VotingProfile", "compute_voting", "kernel_support_radius"]

# Per-voter vote magnitude below which a Gaussian contribution is treated as
# zero by the sweep's pruning margin; the summed error over any realistic
# number of pruned voters stays well below the 1e-8 equivalence budget.
_GAUSSIAN_SUPPORT_TOL = 1e-12


@dataclass
class VotingProfile:
    """Per-segment votes of every trajectory in a MOD."""

    votes: dict[tuple[str, str], np.ndarray] = field(default_factory=dict)
    pairs_evaluated: int = 0
    pairs_pruned: int = 0
    elapsed_s: float = 0.0

    def segment_votes(self, key: tuple[str, str]) -> np.ndarray:
        """Votes of trajectory ``key``; one value per consecutive-sample segment."""
        return self.votes[key]


def kernel_support_radius(sigma: float, kernel: str) -> float:
    """Distance beyond which a voter's per-sample vote is negligible.

    The triangular kernel is exactly zero beyond ``3 sigma``.  The Gaussian
    never reaches zero, so its support radius is where the vote drops below
    ``_GAUSSIAN_SUPPORT_TOL`` — pruning at this margin keeps the sweep
    within the 1e-8 budget against the all-pairs reference.
    """
    if kernel == "triangular":
        return 3.0 * sigma
    return sigma * math.sqrt(2.0 * math.log(1.0 / _GAUSSIAN_SUPPORT_TOL))


def _sweep(
    mod: MOD,
    params: S2TParams,
    profile: VotingProfile,
    frame: MODFrame | None = None,
) -> None:
    """The voter-major sweep over the time-sorted sample column (module docstring)."""
    sigma = params.sigma
    assert sigma is not None
    if frame is None:
        frame = MODFrame.from_mod(mod)
    n = len(frame)
    kernel = params.voting_kernel
    max_samples = params.voting_samples
    margin = kernel_support_radius(sigma, kernel)
    inv_two_sigma_sq = 1.0 / (2.0 * sigma * sigma)
    inv_three_sigma = 1.0 / (3.0 * sigma)
    tmins, tmaxs = frame.tmins, frame.tmaxs
    xmins, xmaxs, ymins, ymaxs = frame.xmins, frame.xmaxs, frame.ymins, frame.ymaxs
    offsets = frame.offsets
    counts = np.diff(offsets)
    # Knot-to-knot steps of the unsorted columns (the entry across a row
    # boundary is never read: brackets stay inside their row).
    steps_t, steps_x, steps_y = np.diff(frame.ts), np.diff(frame.xs), np.diff(frame.ys)

    # Every sample of every row in time order, with its owner row.  A
    # voter's lifespan is the contiguous slab ``starts[v]:stops[v]``.
    order = np.argsort(frame.ts, kind="stable")
    ts, xs, ys = frame.ts[order], frame.xs[order], frame.ys[order]
    owner = np.repeat(np.arange(n, dtype=np.intp), counts)[order]
    starts = np.searchsorted(ts, tmins, side="left")
    stops = np.searchsorted(ts, tmaxs, side="right")
    acc = np.zeros(ts.size)

    evaluated = 0
    for v in range(n):
        # Targets of voter v: the pairs the per-target probe would pick.
        cand = (
            (tmins[v] <= tmaxs)
            & (tmaxs[v] >= tmins)
            & (xmins[v] - margin <= xmaxs)
            & (xmaxs[v] + margin >= xmins)
            & (ymins[v] - margin <= ymaxs)
            & (ymaxs[v] + margin >= ymins)
        )
        cand[v] = False
        evaluated += int(np.count_nonzero(cand))
        # Only a positive-duration overlap votes.
        cand &= np.minimum(tmaxs, tmaxs[v]) - np.maximum(tmins, tmins[v]) > 0
        if not cand.any():
            continue

        lo, hi = starts[v], stops[v]
        slab_owner = owner[lo:hi]
        keep = cand[slab_owner]
        if (counts[cand] > max_samples).any():
            # The per-pair sub-sampling rule: a target with more than
            # ``max_samples`` instants inside this lifespan is voted on at an
            # evenly spaced subset of them.  ``heavy`` lists those instants
            # grouped by target (ascending), each group in time order; column
            # g of ``sel`` holds the ranks ``np.linspace(0, c_g - 1,
            # max_samples).astype(int)`` that group keeps.
            inside = np.bincount(slab_owner[keep], minlength=n)
            heavy = np.flatnonzero(keep & (inside[slab_owner] > max_samples))
            heavy = heavy[np.argsort(slab_owner[heavy], kind="stable")]
            c = inside[inside > max_samples]
            sel = np.linspace(0, c - 1, max_samples).astype(int)
            keep[heavy] = False
            keep[heavy[np.cumsum(c) - c + sel]] = True

        # Interpolate the voter at the slab's instants with positions_at_batch's
        # bracket, clip and lerp ``x_lo + w * (x_hi - x_lo)``.  The slab is
        # sorted, so one searchsorted of the voter's knots into it splits it
        # into one run per voter segment: instant j falls in segment k iff
        # ``t_k <= q_j`` and k is the last such segment, the bracket
        # ``searchsorted(knots, q_j, "right") - 1`` clipped to the segments.
        q = ts[lo:hi]
        segs = slice(offsets[v], offsets[v + 1] - 1)
        runs = np.diff(np.searchsorted(q, frame.ts[segs], side="left"), append=q.size)
        w = q - np.repeat(frame.ts[segs], runs)
        w /= np.repeat(steps_t[segs], runs)
        np.clip(w, 0.0, 1.0, out=w)
        dx = np.repeat(steps_x[segs], runs)
        dx *= w
        dx += np.repeat(frame.xs[segs], runs)
        np.subtract(xs[lo:hi], dx, out=dx)
        dy = np.repeat(steps_y[segs], runs)
        dy *= w
        dy += np.repeat(frame.ys[segs], runs)
        np.subtract(ys[lo:hi], dy, out=dy)

        vals = np.hypot(dx, dy, out=dx)
        if kernel == "gaussian":
            # exp(-(d**2) * c): negating c instead of d**2 is the same product.
            np.square(vals, out=vals)
            vals *= -inv_two_sigma_sq
            np.exp(vals, out=vals)
        else:  # triangular: clip(1 - d * c, 0)
            vals *= inv_three_sigma
            np.subtract(1.0, vals, out=vals)
            np.clip(vals, 0.0, None, out=vals)
        vals *= keep
        acc[lo:hi] += vals

    point_votes = np.empty_like(acc)
    point_votes[order] = acc
    seg_votes = (point_votes[:-1] + point_votes[1:]) / 2.0
    for row, key in enumerate(frame.keys):
        profile.votes[key] = seg_votes[offsets[row] : offsets[row + 1] - 1]

    profile.pairs_evaluated = evaluated
    profile.pairs_pruned = n * (n - 1) - evaluated


def compute_voting(
    mod: MOD,
    params: S2TParams,
    frame: MODFrame | None = None,
) -> VotingProfile:
    """Run the voting phase over the whole MOD.

    Parameters
    ----------
    mod:
        The MOD to vote over.
    params:
        S2T parameters; ``None`` thresholds are resolved against ``mod``.
    frame:
        Optional prebuilt columnar snapshot of ``mod`` (the engine's frame
        catalog passes its cached frame here); the sweep then skips
        rebuilding it.
    """
    start = time.perf_counter()
    profile = VotingProfile()
    _sweep(mod, params.resolved(mod), profile, frame=frame)
    profile.elapsed_s = time.perf_counter() - start
    return profile
