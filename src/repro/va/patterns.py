"""Holding-pattern detection (Fig. 4).

Aircraft waiting for a landing slot fly *holding patterns*: closed loops near
a holding fix.  Geometrically, a loop is a stretch of movement whose heading
accumulates (at least) a full turn while staying within a small spatial
extent.  :func:`detect_holding_patterns` scans trajectories (or cluster
members) with that criterion and returns the loops found, which is the data
behind the paper's Figure 4 view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.hermes.mod import MOD
from repro.hermes.trajectory import Trajectory
from repro.hermes.types import Period
from repro.s2t.result import ClusteringResult

__all__ = ["HoldingPattern", "detect_holding_patterns", "turning_angle"]


@dataclass(frozen=True)
class HoldingPattern:
    """A detected loop: who, when, where and how many turns."""

    obj_id: str
    traj_key: tuple[str, str]
    period: Period
    center: tuple[float, float]
    radius: float
    turns: float
    cluster_id: int | None = None


def turning_angle(xs: np.ndarray, ys: np.ndarray) -> float:
    """Total signed turning angle (radians) along a polyline."""
    dx = np.diff(xs)
    dy = np.diff(ys)
    headings = np.arctan2(dy, dx)
    turns = np.diff(headings)
    # Wrap to (-pi, pi] so that noise does not register as full turns.
    turns = (turns + np.pi) % (2 * np.pi) - np.pi
    return float(np.sum(turns))


def _scan_trajectory(
    traj: Trajectory,
    min_turns: float,
    max_radius_fraction: float,
    extent: float,
    window: int,
) -> list[tuple[int, int, float, tuple[float, float], float]]:
    """Sliding-window loop scan; returns (start, end, turns, center, radius) hits."""
    hits = []
    n = traj.num_points
    step = max(1, window // 2)
    i = 0
    while i + window < n:
        j = min(i + window, n - 1)
        xs = traj.xs[i : j + 1]
        ys = traj.ys[i : j + 1]
        total_turn = abs(turning_angle(xs, ys))
        cx, cy = float(np.mean(xs)), float(np.mean(ys))
        radius = float(np.max(np.hypot(xs - cx, ys - cy)))
        # A loop turns through (at least) a full revolution, stays compact,
        # and ends up roughly where it started: the net displacement is small
        # compared to the distance flown.  The last criterion is what tells a
        # genuine holding pattern apart from GPS-jitter on a straight leg.
        path_length = float(np.sum(np.hypot(np.diff(xs), np.diff(ys))))
        displacement = float(np.hypot(xs[-1] - xs[0], ys[-1] - ys[0]))
        closes_on_itself = path_length > 0 and displacement / path_length < 0.5
        if (
            total_turn >= min_turns * 2 * np.pi
            and radius <= max_radius_fraction * extent
            and closes_on_itself
        ):
            hits.append((i, j, total_turn / (2 * np.pi), (cx, cy), radius))
            i = j  # skip past the detected loop
        else:
            i += step
    return hits


def detect_holding_patterns(
    source: MOD | ClusteringResult,
    min_turns: float = 0.9,
    max_radius_fraction: float = 0.15,
    window: int = 20,
) -> list[HoldingPattern]:
    """Detect holding-pattern loops.

    Parameters
    ----------
    source:
        Either a MOD (scan every trajectory) or a clustering result (scan
        cluster members, tagging each hit with its cluster id).
    min_turns:
        Minimum accumulated turning, in full revolutions.
    max_radius_fraction:
        Maximum loop radius as a fraction of the data's spatial diagonal.
    window:
        Sliding-window length in samples.

    Raises :class:`ValueError` unless ``min_turns`` is finite and positive.
    """
    if not (math.isfinite(min_turns) and min_turns > 0):
        raise ValueError(f"min_turns must be finite and positive, got {min_turns!r}")
    patterns: list[HoldingPattern] = []

    if isinstance(source, MOD):
        if len(source) == 0:
            return []
        bbox = source.bbox
        extent = (bbox.dx**2 + bbox.dy**2) ** 0.5
        items: list[tuple[Trajectory, tuple[str, str], int | None]] = [
            (traj, traj.key, None) for traj in source
        ]
    else:
        subs = [(sub, cid) for sub, cid in source.all_subtrajectories() if cid is not None]
        if not subs:
            return []
        xs = [float(sub.traj.xs.min()) for sub, _ in subs] + [
            float(sub.traj.xs.max()) for sub, _ in subs
        ]
        ys = [float(sub.traj.ys.min()) for sub, _ in subs] + [
            float(sub.traj.ys.max()) for sub, _ in subs
        ]
        extent = ((max(xs) - min(xs)) ** 2 + (max(ys) - min(ys)) ** 2) ** 0.5
        items = [(sub.traj, sub.parent_key, cid) for sub, cid in subs]

    if extent <= 0:
        return []

    for traj, key, cluster_id in items:
        for start, end, turns, center, radius in _scan_trajectory(
            traj, min_turns, max_radius_fraction, extent, window
        ):
            patterns.append(
                HoldingPattern(
                    obj_id=traj.obj_id,
                    traj_key=key,
                    period=Period(float(traj.ts[start]), float(traj.ts[end])),
                    center=center,
                    radius=radius,
                    turns=turns,
                    cluster_id=cluster_id,
                )
            )
    return patterns
