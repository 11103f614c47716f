"""Trajectory and sub-trajectory model of the Hermes MOD engine.

A :class:`Trajectory` is a time-ordered sequence of spatiotemporal points
``(x, y, t)`` describing the movement of one object.  A
:class:`SubTrajectory` is a contiguous slice of a trajectory; it is the unit
that S2T-Clustering groups into clusters and outliers.

Coordinates are stored as NumPy arrays so that the voting phase — the most
expensive part of S2T — can be vectorised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Iterator, Sequence

import numpy as np

from repro.hermes.types import BoxST, Period, PointST, SegmentST

__all__ = ["Trajectory", "SubTrajectory", "sample_defect"]


def _as_float_array(values: Sequence[float]) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError("coordinate arrays must be one-dimensional")
    return arr


def sample_defect(xs: np.ndarray, ys: np.ndarray, ts: np.ndarray) -> str | None:
    """Why one trajectory's sample columns break the invariant, or ``None``.

    The trajectory invariant: equal-length columns, at least two samples,
    strictly increasing ``ts`` and finite ``xs`` / ``ys`` / ``ts``.  The
    ``ts`` comparison is false for a NaN, and strictly increasing ``ts``
    are finite exactly when their endpoints are.  :class:`Trajectory`
    construction raises this reason; :class:`~repro.hermes.frame.MODFrame`
    checks the same invariant over all rows at once and names the first
    failing row with it.
    """
    if not (len(xs) == len(ys) == len(ts)):
        return "xs, ys, ts must have equal lengths"
    if len(ts) < 2:
        return "a trajectory needs at least two samples"
    if not (ts[1:] > ts[:-1]).all():
        return "timestamps must be strictly increasing"
    if not (
        np.isfinite(xs).all()
        and np.isfinite(ys).all()
        and math.isfinite(ts[0])
        and math.isfinite(ts[-1])
    ):
        return "x, y, t must be finite"
    return None


class Trajectory:
    """A time-ordered sequence of ``(x, y, t)`` samples for one moving object.

    Parameters
    ----------
    obj_id:
        Identifier of the moving object (e.g. an aircraft callsign).
    traj_id:
        Identifier of this trajectory of the object.  ``(obj_id, traj_id)``
        is unique within a MOD.
    xs, ys, ts:
        Equal-length, finite coordinate sequences of at least two samples.
        ``ts`` must be strictly increasing.

    Raises
    ------
    ValueError
        Naming the trajectory and the broken rule (:func:`sample_defect`).
    """

    __slots__ = ("obj_id", "traj_id", "xs", "ys", "ts")

    def __init__(
        self,
        obj_id: str,
        traj_id: str,
        xs: Sequence[float],
        ys: Sequence[float],
        ts: Sequence[float],
    ) -> None:
        self.obj_id = str(obj_id)
        self.traj_id = str(traj_id)
        self.xs = _as_float_array(xs)
        self.ys = _as_float_array(ys)
        self.ts = _as_float_array(ts)
        defect = sample_defect(self.xs, self.ys, self.ts)
        if defect is not None:
            raise ValueError(f"trajectory {self.key!r}: {defect}")

    # -- identity ----------------------------------------------------------

    @property
    def key(self) -> tuple[str, str]:
        """Unique identifier ``(obj_id, traj_id)`` within a MOD."""
        return (self.obj_id, self.traj_id)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Trajectory(obj={self.obj_id!r}, traj={self.traj_id!r}, "
            f"n={self.num_points}, period=[{self.ts[0]:.1f}, {self.ts[-1]:.1f}])"
        )

    def __len__(self) -> int:
        return self.num_points

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return (
            self.key == other.key
            and np.array_equal(self.xs, other.xs)
            and np.array_equal(self.ys, other.ys)
            and np.array_equal(self.ts, other.ts)
        )

    def __hash__(self) -> int:
        return hash(self.key)

    # -- basic geometry ----------------------------------------------------

    @property
    def num_points(self) -> int:
        """Number of samples."""
        return len(self.ts)

    @property
    def period(self) -> Period:
        """Temporal extent ``[first sample, last sample]``."""
        return Period(float(self.ts[0]), float(self.ts[-1]))

    @property
    def duration(self) -> float:
        """Lifespan in time units."""
        return float(self.ts[-1] - self.ts[0])

    @property
    def bbox(self) -> BoxST:
        """3D minimum bounding box."""
        return BoxST(
            float(self.xs.min()),
            float(self.ys.min()),
            float(self.ts[0]),
            float(self.xs.max()),
            float(self.ys.max()),
            float(self.ts[-1]),
        )

    @property
    def length(self) -> float:
        """Total planar travelled distance."""
        return float(np.sum(np.hypot(np.diff(self.xs), np.diff(self.ys))))

    def point(self, i: int) -> PointST:
        """The ``i``-th sample as a :class:`PointST`."""
        return PointST(float(self.xs[i]), float(self.ys[i]), float(self.ts[i]))

    def points(self) -> Iterator[PointST]:
        """Iterate over samples as :class:`PointST` objects."""
        for i in range(self.num_points):
            yield self.point(i)

    def segments(self) -> Iterator[SegmentST]:
        """Iterate over the consecutive-sample 3D segments."""
        for i in range(self.num_points - 1):
            yield SegmentST(self.point(i), self.point(i + 1))

    def segment(self, i: int) -> SegmentST:
        """The segment between samples ``i`` and ``i + 1``."""
        return SegmentST(self.point(i), self.point(i + 1))

    @property
    def num_segments(self) -> int:
        """Number of consecutive-sample segments (``num_points - 1``)."""
        return self.num_points - 1

    # -- temporal operations -----------------------------------------------

    def position_at(self, t: float) -> PointST:
        """Linearly interpolated position at instant ``t``.

        ``t`` is clamped to the trajectory's lifespan, matching the Hermes
        ``atInstant`` operand semantics.
        """
        t = self.period.clamp(t)
        idx = int(np.searchsorted(self.ts, t, side="right")) - 1
        idx = min(max(idx, 0), self.num_points - 2)
        return self.segment(idx).point_at(t)

    def positions_at(self, ts: np.ndarray) -> np.ndarray:
        """Vectorised interpolation: return an ``(len(ts), 2)`` array of x, y.

        Instants outside the lifespan are clamped to the endpoints.
        """
        ts = np.asarray(ts, dtype=float)
        xs = np.interp(ts, self.ts, self.xs)
        ys = np.interp(ts, self.ts, self.ys)
        return np.column_stack([xs, ys])

    def slice_period(self, period: Period) -> "Trajectory | None":
        """Restriction of the trajectory to ``period`` (Hermes ``atPeriod``).

        End points are interpolated at the period bounds.  Returns ``None``
        if the trajectory does not intersect the period or the restriction
        degenerates to a single instant.
        """
        common = self.period.intersection(period)
        if common is None or common.duration <= 0:
            return None
        inside = (self.ts > common.tmin) & (self.ts < common.tmax)
        start = self.position_at(common.tmin)
        end = self.position_at(common.tmax)
        xs = np.concatenate([[start.x], self.xs[inside], [end.x]])
        ys = np.concatenate([[start.y], self.ys[inside], [end.y]])
        ts = np.concatenate([[start.t], self.ts[inside], [end.t]])
        # Guard against duplicate boundary timestamps.
        keep = np.concatenate([[True], np.diff(ts) > 0])
        xs, ys, ts = xs[keep], ys[keep], ts[keep]
        if len(ts) < 2:
            return None
        return Trajectory(self.obj_id, self.traj_id, xs, ys, ts)

    def resample(self, n_samples: int) -> "Trajectory":
        """Return a copy resampled at ``n_samples`` equi-spaced instants."""
        if n_samples < 2:
            raise ValueError("n_samples must be at least 2")
        ts = np.linspace(self.ts[0], self.ts[-1], n_samples)
        xy = self.positions_at(ts)
        return Trajectory(self.obj_id, self.traj_id, xy[:, 0], xy[:, 1], ts)

    # -- sub-trajectory extraction ------------------------------------------

    def subtrajectory(self, start_idx: int, end_idx: int) -> "SubTrajectory":
        """Create the sub-trajectory covering samples ``[start_idx, end_idx]``.

        Both bounds are inclusive and must span at least two samples.
        """
        return SubTrajectory.from_trajectory(self, start_idx, end_idx)

    def split_at_indices(self, cut_points: Sequence[int]) -> list["SubTrajectory"]:
        """Split into sub-trajectories at the given sample indices.

        ``cut_points`` are interior indices where a new sub-trajectory starts;
        they are de-duplicated and sorted.  The resulting sub-trajectories
        overlap at the cut samples so that no movement is lost.
        """
        cuts = sorted({int(c) for c in cut_points if 0 < c < self.num_points - 1})
        bounds = [0] + cuts + [self.num_points - 1]
        out = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if hi > lo:
                out.append(self.subtrajectory(lo, hi))
        return out


@dataclass(frozen=True)
class SubTrajectory:
    """A contiguous slice of a parent trajectory.

    Sub-trajectories remember where they came from (``parent_key``,
    ``start_idx``, ``end_idx``) so that clustering results can be mapped back
    onto raw MOD records, as the ReTraTree partitions require.
    """

    parent_key: tuple[str, str]
    start_idx: int
    end_idx: int
    traj: Trajectory = field(compare=False)

    @staticmethod
    def from_trajectory(parent: Trajectory, start_idx: int, end_idx: int) -> "SubTrajectory":
        """Build a sub-trajectory from sample ``start_idx`` to ``end_idx`` (inclusive)."""
        if not (0 <= start_idx < end_idx <= parent.num_points - 1):
            raise ValueError(
                f"invalid sub-trajectory bounds [{start_idx}, {end_idx}] for "
                f"trajectory with {parent.num_points} points"
            )
        sub_id = f"{parent.traj_id}#{start_idx}-{end_idx}"
        traj = Trajectory(
            parent.obj_id,
            sub_id,
            parent.xs[start_idx : end_idx + 1],
            parent.ys[start_idx : end_idx + 1],
            parent.ts[start_idx : end_idx + 1],
        )
        return SubTrajectory(parent.key, start_idx, end_idx, traj)

    @property
    def key(self) -> tuple[str, str, int, int]:
        """Unique identifier of the sub-trajectory within a MOD."""
        return (*self.parent_key, self.start_idx, self.end_idx)

    @property
    def obj_id(self) -> str:
        return self.parent_key[0]

    @property
    def period(self) -> Period:
        return self.traj.period

    @property
    def bbox(self) -> BoxST:
        return self.traj.bbox

    @property
    def num_points(self) -> int:
        return self.traj.num_points

    def __len__(self) -> int:
        return self.traj.num_points
