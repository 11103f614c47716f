"""The voting phase of NaTS.

Every segment of every trajectory receives a vote from each other trajectory
that is alive during the segment's time span.  The vote decays with the
synchronous distance ``d`` between the two objects:

* Gaussian kernel:    ``exp(-(dx^2 + dy^2) / (2 sigma^2))``
* triangular kernel:  ``max(0, 1 - sqrt(dx^2 + dy^2) / (3 sigma))``

where ``(dx, dy)`` is the offset between the two objects at one instant.
Both kernels read the squared distance ``dx*dx + dy*dy``; only the
triangular one takes its square root, and no ``hypot`` is evaluated.

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
   one ``searchsorted`` of its knots into the sorted slab; the lerp of
   :meth:`~repro.hermes.frame.MODFrame.positions_at_batch`, same
   arithmetic — its clip of the weight to ``[0, 1]`` never fires on a
   bracketed instant), the kernel is evaluated against the slab's own positions,
   cells whose owner is not a candidate are multiplied by zero, and the
   values are added into one accumulator with ``acc[lo:hi] += vals``.  A
   target is voted on at every one of its instants inside the voter's
   lifespan.
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

from repro.hermes.frame import MODFrame, as_frame
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


def _sweep(frame: MODFrame, params: S2TParams, profile: VotingProfile) -> None:
    """The voter-major sweep over the time-sorted sample column (module docstring)."""
    sigma = params.sigma
    assert sigma is not None
    n = len(frame)
    kernel = params.voting_kernel
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
        keep = cand[owner[lo:hi]]

        # Interpolate the voter at the slab's instants with positions_at_batch's
        # bracket and lerp ``x_lo + w * (x_hi - x_lo)``.  The slab is
        # sorted, so one searchsorted of the voter's knots into it splits it
        # into one run per voter segment: instant j falls in segment k iff
        # ``t_k <= q_j`` and k is the last such segment, the bracket
        # ``searchsorted(knots, q_j, "right") - 1`` clipped to the segments.
        q = ts[lo:hi]
        segs = slice(offsets[v], offsets[v + 1] - 1)
        runs = np.diff(np.searchsorted(q, frame.ts[segs], side="left"), append=q.size)
        w = q - np.repeat(frame.ts[segs], runs)
        w /= np.repeat(steps_t[segs], runs)
        # No clip to [0, 1]: run k holds only instants with t_k <= q <= t_{k+1}
        # and rounding is monotone, so 0 <= q - t_k <= t_{k+1} - t_k and w is
        # already in [0, 1].
        dx = np.repeat(steps_x[segs], runs)
        dx *= w
        dx += np.repeat(frame.xs[segs], runs)
        np.subtract(xs[lo:hi], dx, out=dx)
        dy = np.repeat(steps_y[segs], runs)
        dy *= w
        dy += np.repeat(frame.ys[segs], runs)
        np.subtract(ys[lo:hi], dy, out=dy)

        # The kernels read the squared distance dx*dx + dy*dy, in place.
        vals = np.multiply(dx, dx, out=dx)
        dy *= dy
        vals += dy
        if kernel == "gaussian":
            # exp(-(d**2) * c): negating c instead of d**2 is the same product.
            vals *= -inv_two_sigma_sq
            np.exp(vals, out=vals)
        else:  # triangular: clip(1 - d * c, 0)
            np.sqrt(vals, out=vals)
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
    mod: MODFrame | MOD,
    params: S2TParams,
    frame: MODFrame | None = None,
) -> VotingProfile:
    """Run the voting phase over the whole dataset.

    Parameters
    ----------
    mod:
        The dataset to vote over: its frame (what a fit passes), or a MOD,
        snapshotted once.
    params:
        S2T parameters; ``None`` thresholds are resolved against the
        dataset's extent, read from the frame's bounding-box tables.
    frame:
        Optional prebuilt frame of a MOD ``mod``; the sweep then skips
        rebuilding it.
    """
    start = time.perf_counter()
    if frame is None:
        frame = as_frame(mod)
    profile = VotingProfile()
    _sweep(frame, params.resolved(frame), profile)
    profile.elapsed_s = time.perf_counter() - start
    return profile
