"""Neighbourhood-aware Trajectory Segmentation (NaTS, phase 2).

Given the per-segment voting signal of a trajectory, NaTS partitions the
trajectory into sub-trajectories of *homogeneous representativeness*: runs of
segments whose votes are similar, irrespective of the trajectory's shape.

Two segmenters are provided:

* the optimal partitioning minimising the total within-segment variance plus
  a per-segment penalty (an MDL-style cost), solved by one dynamic program
  batched over every trajectory of the frame (:func:`dp_segmentation` is its
  one-signal call),
* :func:`greedy_segmentation` -- a linear-time scan per trajectory that opens
  a new sub-trajectory when the voting level drifts away from the running
  mean (the ablation variant).

Both give *cut points*: sample indices where a new sub-trajectory starts.

Frame-native segmentation
-------------------------
:func:`segment_frame` is what :meth:`S2TClustering.fit
<repro.s2t.pipeline.S2TClustering.fit>` runs.  The DP pads the votes of the
trajectories it has to solve into one ``rows x max_len`` matrix, takes
per-row prefix sums with ``cumsum(axis=1)`` (sequential, so bit-equal to the
one-signal ``cumsum``) and runs a single loop over the segment end ``j``:
each step evaluates every row's candidate costs with the one-signal
expression and keeps a row-wise first-minimum ``argmin`` and backpointer.
A row never reads a cell past its own length, so the padding is inert, and
the per-row guards (too short, constant signal) and the variance-scaled
penalty use the one-signal 1-D expressions.  The cuts are therefore exactly
those of the per-trajectory DP, which ``tests/s2t/oracles.py`` keeps as the
oracle.

Each trajectory's cuts become ``(row, lo, hi)`` pieces that share the knot
at each cut (as :meth:`~repro.hermes.trajectory.Trajectory.split_at_indices`
does).  One gather index copies every piece's samples out of the parent
columns into the **sub-trajectory frame** (row ``i`` = piece ``i``, key
``(obj_id, "<traj_id>#<lo>-<hi>")``), which the frame checks once.  The
pieces are :class:`~repro.s2t.result.Members` over those rows with their
parent keys and sample bounds: a :class:`SubTrajectory` (a view of its row)
is built only when a caller iterates them, so a fit builds one per
representative, not one per piece.  A piece's voting mass is the mean vote
of its segments.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

import numpy as np

from repro.hermes.frame import MODFrame, TrajectoryRows
from repro.hermes.mod import MOD
from repro.hermes.trajectory import SubTrajectory
from repro.s2t.params import S2TParams
from repro.s2t.result import Members
from repro.s2t.voting import VotingProfile

__all__ = [
    "dp_segmentation",
    "greedy_segmentation",
    "segment_frame",
    "segment_mod",
]


def _dp_cuts(signals: Sequence[np.ndarray], penalty: float, min_len: int) -> list[list[int]]:
    """Optimal cuts of every signal, one DP batched over all of them."""
    cuts: list[list[int]] = [[] for _ in signals]
    active: list[int] = []
    penalties: list[float] = []
    for r, votes in enumerate(signals):
        n = len(votes)
        if n <= min_len:
            continue
        # A (numerically) constant signal carries no segmentation information:
        # without this guard the variance-proportional penalty collapses to ~0
        # and the DP would place cuts based on floating-point dust.
        dynamic_range = float(votes.max() - votes.min())
        if dynamic_range <= 1e-9 * (float(np.abs(votes).max()) + 1.0):
            continue
        total_ss = float(np.sum((votes - votes.mean()) ** 2))
        penalties.append(penalty * total_ss if total_ss > 0 else penalty)
        active.append(r)
    if not active:
        return cuts

    lengths = [len(signals[r]) for r in active]
    width = max(lengths)
    padded = np.zeros((len(active), width))
    for k, r in enumerate(active):
        padded[k, : lengths[k]] = signals[r]
    # Prefix sums for O(1) within-segment cost, one row per signal.
    prefix = np.zeros((len(active), width + 1))
    np.cumsum(padded, axis=1, out=prefix[:, 1:])
    prefix_sq = np.zeros((len(active), width + 1))
    np.cumsum(padded**2, axis=1, out=prefix_sq[:, 1:])
    pen = np.array(penalties)[:, None]
    i_index = np.arange(width + 1, dtype=float)
    rows = np.arange(len(active))

    best = np.full((len(active), width + 1), np.inf)
    best[:, 0] = 0.0
    back = np.zeros((len(active), width + 1), dtype=np.intp)
    for j in range(min_len, width + 1):
        # All candidate segment starts i in [0, j - min_len] of every row at
        # once: the within-segment cost of votes[i:j] is prefix_sq[j] -
        # prefix_sq[i] minus (prefix[j] - prefix[i])^2 / (j - i).
        # Unreachable starts (best[i] = inf) stay inf and can never win the
        # argmin (i = 0 is always reachable).  Cells past a row's length are
        # filled but never read by that row.
        i_hi = j - min_len + 1
        s = prefix[:, j, None] - prefix[:, :i_hi]
        sq = prefix_sq[:, j, None] - prefix_sq[:, :i_hi]
        costs = best[:, :i_hi] + (sq - s * s / (j - i_index[:i_hi])) + pen
        i = np.argmin(costs, axis=1)
        cost = costs[rows, i]
        better = cost < best[:, j]
        best[better, j] = cost[better]
        back[better, j] = i[better]

    # Recover the cut points, row by row from its own end.
    for k, row_back in enumerate(back.tolist()):
        row_cuts = []
        j = lengths[k]
        while j > 0:
            i = row_back[j]
            if i > 0:
                row_cuts.append(i)
            j = i
        row_cuts.reverse()
        cuts[active[k]] = row_cuts
    return cuts


def dp_segmentation(
    votes: np.ndarray, penalty: float, min_len: int
) -> list[int]:
    """Optimal 1D segmentation of the voting signal.

    Minimises ``sum_over_segments(within-segment sum of squared deviation)
    + penalty_cost * number_of_segments`` with segments at least ``min_len``
    votes long.  ``penalty`` is expressed as a fraction of the signal's total
    variance so that it is scale-free.

    Returns the cut points as indices into the *sample* axis (a cut at ``i``
    means a new sub-trajectory starts at sample ``i``).  This is the batched
    DP of :func:`segment_frame` on one signal.
    """
    return _dp_cuts([votes], penalty, min_len)[0]


def greedy_segmentation(
    votes: np.ndarray, threshold_fraction: float, min_len: int
) -> list[int]:
    """Linear-time heuristic segmentation.

    A new sub-trajectory starts when the current vote deviates from the
    running segment mean by more than ``threshold_fraction`` of the signal's
    dynamic range and the current segment is at least ``min_len`` votes long.
    """
    n = len(votes)
    if n <= min_len:
        return []
    dynamic_range = float(votes.max() - votes.min())
    if dynamic_range <= 0:
        return []
    threshold = threshold_fraction * dynamic_range
    cuts = []
    seg_start = 0
    running_sum = votes[0]
    for i in range(1, n):
        seg_len = i - seg_start
        mean = running_sum / seg_len
        if seg_len >= min_len and abs(votes[i] - mean) > threshold and n - i >= min_len:
            cuts.append(i)
            seg_start = i
            running_sum = votes[i]
        else:
            running_sum += votes[i]
    return cuts


def _cuts(signals: Sequence[np.ndarray], params: S2TParams) -> list[list[int]]:
    """Cut points of every voting signal under ``params.segmentation_method``."""
    if params.segmentation_method == "dp":
        return _dp_cuts(signals, params.segmentation_penalty, params.min_segment_samples)
    # The greedy threshold reuses the DP penalty fraction as "drift" size:
    # larger penalty -> fewer segments in both methods.
    threshold = max(params.segmentation_penalty * 4.0, 0.1)
    return [
        greedy_segmentation(votes, threshold, params.min_segment_samples)
        for votes in signals
    ]


def segment_frame(
    frame: MODFrame, profile: VotingProfile, params: S2TParams
) -> tuple[MODFrame, Members, np.ndarray]:
    """Segment every row of ``frame`` (module docstring).

    Returns ``(sub_frame, pieces, masses)``: the checked frame of the pieces
    (row ``i`` = ``pieces[i].traj``), the pieces in row order as
    :class:`~repro.s2t.result.Members` over its rows (no
    :class:`SubTrajectory` is built until a caller iterates them), and each
    piece's voting mass — the mean vote of its segments, the
    representativeness score consumed by the sampling phase.
    """
    signals = [profile.segment_votes(key) for key in frame.keys]
    last_sample = np.diff(frame.offsets) - 1
    rows: list[int] = []
    los: list[int] = []
    his: list[int] = []
    masses: list[float] = []
    for row, row_cuts in enumerate(_cuts(signals, params)):
        last = int(last_sample[row])
        votes = signals[row]
        bounds = [0, *sorted({int(c) for c in row_cuts if 0 < c < last}), last]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            seg_slice = votes[lo:hi]
            masses.append(float(np.mean(seg_slice)) if len(seg_slice) else 0.0)
            rows.append(row)
            los.append(lo)
            his.append(hi)

    # One gather: piece i owns parent samples offsets[row] + lo ... + hi.
    lo_arr, hi_arr = np.array(los, dtype=np.intp), np.array(his, dtype=np.intp)
    counts = hi_arr - lo_arr + 1
    offsets = np.zeros(len(rows) + 1, dtype=np.intp)
    np.cumsum(counts, out=offsets[1:])
    first = frame.offsets[np.array(rows, dtype=np.intp)] + lo_arr
    take = np.arange(int(offsets[-1]), dtype=np.intp) + np.repeat(first - offsets[:-1], counts)
    keys = [
        (frame.keys[row][0], f"{frame.keys[row][1]}#{lo}-{hi}")
        for row, lo, hi in zip(rows, los, his)
    ]
    sub_frame = MODFrame._from_columns(
        keys, frame.xs[take], frame.ys[take], frame.ts[take], offsets
    )
    pieces = TrajectoryRows(sub_frame, [frame.keys[row] for row in rows], list(zip(los, his)))
    return sub_frame, Members.of_rows(pieces), np.array(masses, dtype=float)


def segment_mod(
    mod: MOD,
    profile: VotingProfile,
    params: S2TParams,
    frame: MODFrame | None = None,
) -> tuple[list[SubTrajectory], dict[tuple[str, str, int, int], float], float]:
    """Segment every trajectory of a MOD.

    Returns ``(subtrajectories, voting_mass, elapsed_seconds)`` where
    ``voting_mass`` maps each sub-trajectory key to the mean vote of its
    segments.  ``frame`` is the optional prebuilt columnar snapshot of
    ``mod``; when omitted it is built here.  This is :func:`segment_frame`
    with its masses keyed by sub-trajectory.
    """
    start = time.perf_counter()
    if frame is None:
        frame = MODFrame.from_mod(mod)
    _sub_frame, pieces, masses = segment_frame(frame, profile, params)
    subtrajectories = list(pieces)
    voting_mass = {sub.key: mass for sub, mass in zip(subtrajectories, masses.tolist())}
    return subtrajectories, voting_mass, time.perf_counter() - start
